"""The PCC control algorithm (§3.2).

The controller is a pure state machine: it never touches the network directly.
The performance monitor asks it for the rate of each new monitor interval
(:meth:`PCCController.next_rate`) and later reports the interval's measured
utility (:meth:`PCCController.on_mi_complete`).  Three states implement the
paper's practical algorithm:

Starting state
    Begin at ``2 * MSS / RTT`` and double the rate every MI — like TCP slow
    start, except the exit condition is *utility decreasing*, never a packet
    loss.  On exit, return to the previous (higher-utility) rate and enter the
    decision state.

Decision-making state
    Run randomized controlled trials (RCTs): four consecutive MIs organised as
    two pairs, each pair testing ``r (1 + eps)`` and ``r (1 - eps)`` in random
    order.  Move only if both pairs agree on the direction; otherwise stay at
    ``r`` and retry with a larger granularity ``eps + eps_min`` (capped at
    ``eps_max``).  While waiting for trial results, keep sending at ``r``.

Rate-adjusting state
    Having chosen a direction, accelerate: the n-th consecutive MI in this
    state uses ``r_n = r_{n-1} (1 + n * eps_min * dir)``.  As soon as an MI's
    utility drops below its predecessor's, revert to the predecessor's rate and
    fall back to the decision state.

Because utility results arrive roughly one RTT after an MI's sending phase
ends, the controller may have issued one or two further MIs before it learns
that utility fell; an *epoch* counter attached to every MI purpose lets it
discard results that belong to an abandoned probing direction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from ..units import BPS_PER_MBPS, Bps
from .metrics import MonitorIntervalStats

__all__ = ["PCCController", "ControllerState", "MIPurpose"]

#: Smallest and largest rates the controller will ever choose (bits per
#: second).  The monitor sizes its intervals against the same floor.
MIN_RATE_BPS = 16_000.0
MAX_RATE_BPS = 1e12


class ControllerState(enum.Enum):
    """The three states of the practical PCC control algorithm."""

    STARTING = "starting"
    DECISION = "decision"
    ADJUSTING = "adjusting"


@dataclass(frozen=True)
class MIPurpose:
    """Tag attached to each MI describing why the controller chose its rate."""

    kind: str          # "starting" | "trial" | "wait" | "adjust"
    epoch: int         # probing epoch; stale results are ignored
    trial_index: int = -1
    sign: int = 0      # +1 / -1 for trial MIs, direction for adjust MIs
    step: int = 0      # adjusting step number


class PCCController:
    """PCC's gradient-ascent-style learning rate control."""

    def __init__(
        self,
        initial_rate_bps: Bps = 1_000_000.0,
        epsilon_min: float = 0.01,
        epsilon_max: float = 0.05,
        use_rct: bool = True,
    ):
        if epsilon_min <= 0 or epsilon_max < epsilon_min:
            raise ValueError("need 0 < epsilon_min <= epsilon_max")
        self.epsilon_min = epsilon_min
        self.epsilon_max = epsilon_max
        self.use_rct = use_rct
        self.state = ControllerState.STARTING
        self.rate_bps = self._clamp(initial_rate_bps)
        self.epsilon = epsilon_min
        self._epoch = 0
        self._rng = None  # set via attach_rng; falls back to deterministic order
        # Starting state.
        self._next_start_rate = self.rate_bps
        self._last_start: Optional[Tuple[float, float]] = None  # (rate, utility)
        self._starting_decreases = 0
        # Decision state.
        self._trial_plan: list[Tuple[int, int]] = []  # (trial_index, sign)
        self._trial_results: dict[int, Tuple[int, float]] = {}
        self._trials_expected = 0
        # Adjusting state.
        self._direction = 0
        self._adjust_step = 0
        self._last_adjust: Optional[Tuple[float, float]] = None  # (rate, utility)
        # Diagnostics.
        self.decisions = 0
        self.inconclusive_decisions = 0
        self.reversions = 0

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach_rng(self, rng) -> None:
        """Provide the simulator RNG used to randomise trial ordering."""
        self._rng = rng

    def _clamp(self, rate: float) -> float:
        return min(max(rate, MIN_RATE_BPS), MAX_RATE_BPS)

    def reset_initial_rate(self, rate_bps: Bps) -> None:
        """Restart the rate search from ``rate_bps`` (clamped to the bounds).

        Called at flow start once the path RTT is known, to apply the §3.2
        ``2 * MSS / RTT`` initial rate; callers must not poke the private
        starting-state fields directly.
        """
        rate = self._clamp(rate_bps)
        self.rate_bps = rate
        self._next_start_rate = rate

    # ------------------------------------------------------------------ #
    # Rate selection (called by the monitor at the start of every MI)
    # ------------------------------------------------------------------ #
    def next_rate(self, now: float) -> Tuple[float, MIPurpose]:
        """Rate and purpose tag for the MI that is about to start."""
        if self.state is ControllerState.STARTING:
            rate = self._clamp(self._next_start_rate)
            self._next_start_rate = self._clamp(self._next_start_rate * 2.0)
            self.rate_bps = rate
            return rate, MIPurpose(kind="starting", epoch=self._epoch)
        if self.state is ControllerState.DECISION:
            if self._trial_plan:
                trial_index, sign = self._trial_plan.pop(0)
                rate = self._clamp(self.rate_bps * (1.0 + sign * self.epsilon))
                return rate, MIPurpose(
                    kind="trial", epoch=self._epoch, trial_index=trial_index, sign=sign
                )
            return self.rate_bps, MIPurpose(kind="wait", epoch=self._epoch)
        # ADJUSTING: r_n = r_{n-1} * (1 + n * eps_min * dir), with r_{n-1} being
        # the rate issued for the previous MI (held in self.rate_bps).
        self._adjust_step += 1
        step = self._adjust_step
        rate = self._clamp(
            self.rate_bps * (1.0 + step * self.epsilon_min * self._direction)
        )
        self.rate_bps = rate
        return rate, MIPurpose(
            kind="adjust", epoch=self._epoch, sign=self._direction, step=step
        )

    # ------------------------------------------------------------------ #
    # Utility feedback (called by the monitor when an MI completes)
    # ------------------------------------------------------------------ #
    def on_mi_complete(self, mi: MonitorIntervalStats) -> None:
        """Fold one completed MI's utility into the state machine."""
        purpose = mi.purpose
        if not isinstance(purpose, MIPurpose) or purpose.epoch != self._epoch:
            return
        if mi.is_empty():
            self._handle_empty(purpose)
            return
        if purpose.kind == "starting" and self.state is ControllerState.STARTING:
            self._handle_starting(mi)
        elif purpose.kind == "trial" and self.state is ControllerState.DECISION:
            self._handle_trial(mi, purpose)
        elif purpose.kind == "adjust" and self.state is ControllerState.ADJUSTING:
            self._handle_adjust(mi)
        # "wait" MIs and stale results carry no decision weight.

    # -- starting -------------------------------------------------------------
    def _handle_starting(self, mi: MonitorIntervalStats) -> None:
        utility = mi.utility or 0.0
        if self._last_start is not None:
            previous_rate, previous_utility = self._last_start
            # A genuine capacity overshoot shows up as a large utility drop
            # (loss pushes the sigmoid off its cliff), while measurement noise
            # from one or two random losses produces only a mild dip.  Exit on
            # a strong drop immediately, or on two consecutive mild decreases;
            # a single mild dip keeps doubling (robustness deviation documented
            # in EXPERIMENTS.md — the paper exits on any decrease).
            strong_drop = utility < 0.0 or utility < 0.5 * previous_utility
            mild_drop = utility < previous_utility
            if strong_drop or (mild_drop and self._starting_decreases >= 1):
                self.rate_bps = self._clamp(previous_rate)
                self._enter_decision(reset_epsilon=True)
                return
            self._starting_decreases = self._starting_decreases + 1 if mild_drop else 0
            if mild_drop:
                # Keep the better of the two (rate, utility) pairs as the
                # fallback point, so a later exit reverts to the best rate
                # seen so far rather than whatever happened to be stored.
                self._last_start = (previous_rate, previous_utility)
                return
        self._last_start = (mi.target_rate_bps, utility)

    # -- decision -------------------------------------------------------------
    def _enter_decision(self, reset_epsilon: bool) -> None:
        self.state = ControllerState.DECISION
        self._epoch += 1
        if reset_epsilon:
            self.epsilon = self.epsilon_min
        self._trial_results = {}
        num_pairs = 2 if self.use_rct else 1
        self._trials_expected = 2 * num_pairs
        plan: list[Tuple[int, int]] = []
        for pair in range(num_pairs):
            signs = [1, -1]
            if self._rng is not None and self._rng.random() < 0.5:
                signs.reverse()
            plan.append((2 * pair, signs[0]))
            plan.append((2 * pair + 1, signs[1]))
        self._trial_plan = plan

    def _handle_empty(self, purpose: MIPurpose) -> None:
        # An MI in which nothing was sent gives no information.  If it was a
        # trial, put it back in the plan so the decision can still conclude.
        if purpose.kind == "trial" and self.state is ControllerState.DECISION:
            self._trial_plan.append((purpose.trial_index, purpose.sign))

    def _handle_trial(self, mi: MonitorIntervalStats, purpose: MIPurpose) -> None:
        self._trial_results[purpose.trial_index] = (purpose.sign, mi.utility or 0.0)
        if len(self._trial_results) < self._trials_expected:
            return
        self.decisions += 1
        num_pairs = self._trials_expected // 2
        prefers_higher = 0
        prefers_lower = 0
        chosen_utilities: dict[int, list[float]] = {1: [], -1: []}
        for pair in range(num_pairs):
            first = self._trial_results.get(2 * pair)
            second = self._trial_results.get(2 * pair + 1)
            if first is None or second is None:
                continue
            by_sign = {first[0]: first[1], second[0]: second[1]}
            chosen_utilities[1].append(by_sign.get(1, 0.0))
            chosen_utilities[-1].append(by_sign.get(-1, 0.0))
            if by_sign.get(1, 0.0) > by_sign.get(-1, 0.0):
                prefers_higher += 1
            else:
                prefers_lower += 1
        if prefers_higher == num_pairs:
            self._begin_adjusting(direction=1, utilities=chosen_utilities[1])
        elif prefers_lower == num_pairs:
            self._begin_adjusting(direction=-1, utilities=chosen_utilities[-1])
        else:
            # Inconclusive: stay at the current rate, look with a coarser step.
            self.inconclusive_decisions += 1
            self.epsilon = min(self.epsilon + self.epsilon_min, self.epsilon_max)
            self._enter_decision(reset_epsilon=False)

    def _begin_adjusting(self, direction: int, utilities: list[float]) -> None:
        new_rate = self._clamp(self.rate_bps * (1.0 + direction * self.epsilon))
        self.state = ControllerState.ADJUSTING
        self._epoch += 1
        self._direction = direction
        self._adjust_step = 0
        self.rate_bps = new_rate
        # The first adjusting MI is judged against the same baseline every
        # later one is: its predecessor's *own* measurement.  Here that
        # predecessor is the most recent chosen-direction trial (the one sent
        # at `new_rate`), so seed the baseline with its utility alone.
        # Averaging in earlier trials' measurements inflates the baseline when
        # one of them was a lucky outlier and triggers a spurious immediate
        # reversion (pinned by a regression test).
        reference_utility = utilities[-1] if utilities else 0.0
        self._last_adjust = (new_rate, reference_utility)
        self.epsilon = self.epsilon_min

    # -- adjusting ------------------------------------------------------------
    def _handle_adjust(self, mi: MonitorIntervalStats) -> None:
        utility = mi.utility or 0.0
        if self._last_adjust is not None and utility < self._last_adjust[1]:
            # Utility fell: revert to the previous rate and re-enter decisions.
            self.reversions += 1
            self.rate_bps = self._clamp(self._last_adjust[0])
            self._enter_decision(reset_epsilon=True)
            return
        self._last_adjust = (mi.target_rate_bps, utility)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PCCController(state={self.state.value}, rate={self.rate_bps / BPS_PER_MBPS:.3f} Mbps, "
            f"eps={self.epsilon:.3f})"
        )
