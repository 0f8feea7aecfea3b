"""Window controllers held to the laws their docstrings cite.

Unit oracles with no simulation: each drives a controller with synthetic
``on_ack`` calls and checks the published curve, not a trajectory.
"""

import pytest

from repro.cc import HyblaController, IllinoisController
from repro.cc.base import MAX_CWND

_BETA_MIN, _BETA_MAX = 0.125, 0.5


class TestHybla:
    def test_slow_start_stops_at_the_receive_window(self):
        """At rho = 32 (800 ms over the 25 ms reference) one slow-start ACK
        adds 2^16 - 1 packets; the window stops at the receiver's."""
        controller = HyblaController()
        controller.on_ack(0.8, 0.0)
        assert controller.rho == 32.0
        assert controller.cwnd == MAX_CWND


def illinois_beta(queue_delay, max_queue_delay=0.1, base_rtt=0.03):
    """Illinois' beta after one round whose mean queueing delay is
    ``queue_delay``, with ``max_queue_delay`` the largest seen, at cwnd 20
    (above the 15-packet window where Illinois is plain Reno)."""
    controller = IllinoisController()
    controller.cwnd = controller.ssthresh = 20.0
    # The first round sees the largest RTT, the second the smallest; the
    # third round's two samples average to base + queue_delay.
    controller.on_ack(base_rtt + max_queue_delay, 0.0)
    controller.on_ack(base_rtt, 1.0)
    controller.on_ack(base_rtt + queue_delay, 1.001)
    controller.on_ack(base_rtt + queue_delay, 2.0)
    return controller.beta


class TestIllinois:
    """Liu, Basar and Srikant: beta is beta_min below d2 = 0.1 d_m, beta_max
    above d3 = 0.8 d_m and linear in between, so continuous on [0, d_m]."""

    @pytest.mark.parametrize("edge, value", [(0.010, _BETA_MIN), (0.080, _BETA_MAX)])
    def test_beta_is_continuous_at_d2_and_d3(self, edge, value):
        below = illinois_beta(edge - 1e-4)
        above = illinois_beta(edge + 1e-4)
        assert below == pytest.approx(value, abs=1e-3)
        assert above == pytest.approx(value, abs=1e-3)

    def test_beta_is_linear_between_d2_and_d3(self):
        assert illinois_beta(0.045) == pytest.approx((_BETA_MIN + _BETA_MAX) / 2)
        assert illinois_beta(0.0799) < _BETA_MAX
