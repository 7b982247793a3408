import numpy as np
import pytest

from cran_maxmin.harness import ExperimentConfig, draw_trial
from cran_maxmin.model import ChannelState


def random_channels(seed: int, n_users: int, n_rrh: int, n_antennas: int) -> ChannelState:
    """Unit-scale CN(0,1) channels; fast instances for solver contract tests."""
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((n_users, n_rrh, n_antennas))
         + 1j * rng.standard_normal((n_users, n_rrh, n_antennas))) / np.sqrt(2.0)
    return ChannelState(h)


def desk_instance(seed: int, n_rrh: int = 3, n_users: int = 6, n_antennas: int = 2):
    """Realistic draw with the default geometry and noise model over 10 MHz."""
    cfg = ExperimentConfig(n_rrh=n_rrh, n_users=n_users, n_antennas=n_antennas, seed=seed)
    topo, ch = draw_trial(cfg, 0)
    return topo, ch, cfg.noise_power_w()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
