import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from twistchain import ChainParams, SpectralContext, TwistParams
from twistchain.chain import Grading, MonodromyFamily

settings.register_profile(
    "desk",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")


def random_twist(rng, diagonal: bool = False) -> TwistParams:
    """Generic non-degenerate twist; retries the rare near-degenerate draw."""
    while True:
        vals = rng.uniform(0.5, 2.0, 4) + 1j * rng.uniform(-0.3, 0.3, 4)
        if diagonal:
            vals[2] = vals[3] = 0.0
        tw = TwistParams(*vals)
        disc = (tw.kappa - tw.kappa_tilde) ** 2 + 4 * tw.kappa_plus * tw.kappa_minus
        if abs(disc) > 0.05 and abs(tw.gamma) > 0.05:
            return tw


def random_theta(rng, sites: int):
    return tuple(rng.uniform(-0.3, 0.3, sites) + 1j * rng.uniform(-0.1, 0.1, sites))


def random_context(rng, sites: int, diagonal: bool = False) -> SpectralContext:
    chain = ChainParams(sites=sites, c=1.0, theta=random_theta(rng, sites))
    return SpectralContext.create(chain, random_twist(rng, diagonal))


def draw_points(rng, count: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal(count) + 1j * rng.standard_normal(count))


def dense_stack(family) -> np.ndarray:
    """A family's four blocks as one dense (2, 2, degree + 1, d, d)
    coefficient stack, t_ij at [i, j]."""
    return np.array([[family.t11.coeffs, family.t12.coeffs], [family.t21.coeffs, family.t22.coeffs]])


def dense_family(stack, unit=1.0) -> MonodromyFamily:
    """A bare family stored dense, on one sector holding the whole basis,
    from a (2, 2, k, d, d) coefficient stack."""
    k, d = stack.shape[2], stack.shape[-1]
    one_sector = Grading((np.arange(d),), np.zeros((2, 2), dtype=int))
    return MonodromyFamily(stack.transpose(2, 0, 1, 3, 4).reshape(k, -1), unit, one_sector)


@pytest.fixture(scope="session")
def config_a() -> SpectralContext:
    """One site, c=1, homogeneous, twist (2,1,1,1): everything quadratic."""
    chain = ChainParams(sites=1, c=1.0, theta=(0.0,))
    return SpectralContext.create(chain, TwistParams(2.0, 1.0, 1.0, 1.0))
