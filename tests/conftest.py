import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from dualspace import bucket_panel, dual_regression, state_space, synth_market

#: Generator configuration used by the backcast oracle checks: dense
#: tapes, strong planted sentiment coupling, no coupling to the yield.
COUPLED_CONFIG = synth_market.MarketConfig(
    n_traders=2, seed=11, trades_per_day_mean=300.0,
    couplings=synth_market.Couplings(g_sent=0.9))


def skip_unless_blas_kernel_can_be_chosen():
    """Skips where OpenBLAS's x86-64 kernels cannot be chosen at run
    time through OPENBLAS_CORETYPE."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip("numpy's BLAS is not an OpenBLAS that picks its kernel at run time")


def rerun_under_other_blas_kernels(*tests):
    """Reruns the given tests (pytest node ids) in a child process with
    OpenBLAS held to its Prescott (SSE3) kernel, then to its Nehalem
    (SSE4.2) one, whose sums round differently from the kernels newer
    x86-64 machines pick; they must still pass.  Skips where those
    kernels cannot be chosen at run time."""
    skip_unless_blas_kernel_can_be_chosen()
    for kernel in ("Prescott", "Nehalem"):
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            env={**os.environ, "OPENBLAS_CORETYPE": kernel},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True, text=True)
        assert child.returncode == 0, f"under {kernel}:\n" + child.stdout[-3000:]


@pytest.fixture(scope="session")
def coupled_market():
    return synth_market.gen_market(COUPLED_CONFIG)


@pytest.fixture(scope="session")
def coupled_outputs(coupled_market):
    """(states, regression output) per trader of the coupled market."""
    result = []
    for tape in coupled_market.tapes:
        panels = bucket_panel.build_panels(tape.records)
        states = state_space.state_matrix(panels, state_space.VolumeMode.IMBALANCE)
        result.append((states, dual_regression.fit_beta(states)))
    return result


@pytest.fixture(scope="session")
def small_market():
    """Cheap 130-day two-trader market for plumbing tests."""
    config = synth_market.MarketConfig(n_traders=2, n_days=130,
                                       trades_per_day_mean=80.0, seed=3)
    return synth_market.gen_market(config)
