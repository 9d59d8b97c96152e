"""Strategy portfolio: a UCB bandit over candidate-generation strategies.

SoberDSE's observation (arXiv:2603.00986) is that no single exploration
algorithm wins across scenarios — learning-based algorithm *selection*
does.  :class:`StrategyPortfolio` brings that to the campaign engine: it is
itself a :class:`~repro.dse.engine.CandidateGenerator` whose registered
**arms** are other generators (``RandomPool``, ``FocusedPool``,
``NSGA2Evolve``...), and each round it delegates proposal to the arm a
per-workload UCB1 bandit selects.

The reward is the early-round **quality slope** from the campaign's
:class:`~repro.dse.engine.QualityTracker`: after each round the portfolio
reads the workload's hypervolume history and scores the arm that proposed
the round with :func:`repro.dse.quality.hypervolume_slope` (mean finite
round-over-round delta, window 1 by default) — a strategy whose rounds keep
growing the measured front keeps earning allocation.

Determinism is load-bearing (``docs/portfolio.md``):

* every arm must be :attr:`~repro.dse.engine.CandidateGenerator.
  rank_stable` — proposals keyed on ``(seed, workload, round)`` — so the
  portfolio is rank-stable too and runs on the parallel campaign runtime
  bitwise equal to serial;
* arm selection (:meth:`arm_for`) is a **pure function** of the bandit
  statistics accumulated for rounds ``< round_index`` of the same
  workload: registration-order round-robin while ``round_index`` is below
  the arm count, then UCB1 with registration-order tie-breaks.  Bandit
  state only mutates in :meth:`observe_round`, which the campaign runtime
  calls in round order in the *parent* process — workers holding a
  pickled copy never race on it, and a resumed campaign replays the same
  observations from its checkpoint to land in the same state bitwise.

The full allocation trace is recorded per round in
:attr:`~repro.dse.engine.CampaignRound.extras` (key ``"arm"``), the
checkpoint (``RoundRecord.arms``), and :meth:`allocation_trace`.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from repro.designspace.space import Configuration
from repro.dse.engine import CandidateGenerator, QualityTracker
from repro import obs
from repro.dse.quality import hypervolume_slope
from repro.dse.surrogates import MultiObjectiveSurrogate

#: Default UCB1 exploration coefficient (the classic sqrt(2)).
UCB_EXPLORATION = math.sqrt(2.0)


class StrategyPortfolio(CandidateGenerator):
    """Bandit-allocated portfolio over rank-stable candidate generators.

    Parameters
    ----------
    arms:
        Ordered mapping of arm name to generator.  Registration order is
        semantic: it fixes the warm-up rotation and every tie-break, so two
        portfolios with the same arms in the same order behave identically.
    exploration:
        UCB1 exploration coefficient (0 = pure exploitation after warm-up).
    reward_window:
        Trailing rounds fed to :func:`~repro.dse.quality.hypervolume_slope`
        per observation; the default 1 scores exactly the observed round's
        improvement.
    """

    surrogate_dependent = True
    rank_stable = True

    def __init__(
        self,
        arms: Mapping[str, CandidateGenerator],
        *,
        exploration: float = UCB_EXPLORATION,
        reward_window: int = 1,
    ) -> None:
        arms = dict(arms)
        if not arms:
            raise ValueError("StrategyPortfolio needs at least one arm")
        for name, arm in arms.items():
            if not getattr(arm, "rank_stable", False):
                raise ValueError(
                    f"portfolio arm {name!r} ({type(arm).__name__}) is not "
                    f"rank-stable; construct it with seed= so proposals are "
                    f"keyed per (workload, round)"
                )
        if exploration < 0.0:
            raise ValueError(f"exploration must be >= 0, got {exploration}")
        if reward_window < 1:
            raise ValueError(f"reward_window must be >= 1, got {reward_window}")
        self.arms = arms
        self.arm_names = tuple(arms)
        self.exploration = float(exploration)
        self.reward_window = int(reward_window)
        #: Per-workload bandit statistics: plays and reward sums per arm.
        self._plays: dict[Optional[str], dict[str, int]] = {}
        self._rewards: dict[Optional[str], dict[str, float]] = {}
        self._trace: list[dict] = []

    # -- selection (pure) -------------------------------------------------------
    def arm_for(self, workload: Optional[str], round_index: int) -> str:
        """Name of the arm that proposes for ``(workload, round_index)``.

        Pure: depends only on construction arguments and the observations
        already folded in for rounds ``< round_index`` of *workload*.
        """
        if round_index < len(self.arm_names):
            # Warm-up rotation: every arm gets one round in registration
            # order before any statistics are consulted.
            return self.arm_names[round_index]
        plays = self._plays.get(workload, {})
        rewards = self._rewards.get(workload, {})
        total = sum(plays.values())
        if total == 0:
            return self.arm_names[0]
        best_name = None
        best_score = -math.inf
        for name in self.arm_names:
            count = plays.get(name, 0)
            if count == 0:
                # Unplayed after warm-up (quality tracking was off for its
                # round): optimistically infinite, first in registration
                # order wins.
                return name
            score = rewards.get(name, 0.0) / count + self.exploration * math.sqrt(
                math.log(total) / count
            )
            if score > best_score:
                best_name = name
                best_score = score
        return best_name

    def proposer_for(
        self, workload: Optional[str], round_index: int
    ) -> CandidateGenerator:
        """The selected arm itself — what the parallel runtime ships to jobs."""
        return self.arms[self.arm_for(workload, round_index)]

    # -- proposal --------------------------------------------------------------
    def propose_for(
        self,
        engine,
        surrogate: Optional[MultiObjectiveSurrogate],
        workload: Optional[str],
        round_index: int,
    ) -> list[Configuration]:
        arm = self.proposer_for(workload, round_index)
        return arm.propose_for(engine, surrogate, workload, round_index)

    # -- learning --------------------------------------------------------------
    def observe_round(
        self, workload: str, round_index: int, tracker: QualityTracker
    ) -> None:
        """Fold one recorded round's quality slope into the bandit state.

        Must be called once per ``(workload, round)`` in round order —
        :meth:`arm_for` re-derives which arm proposed the round from the
        pre-observation state, so out-of-order observation would credit the
        wrong arm.
        """
        arm = self.arm_for(workload, round_index)
        history = [
            entry.hypervolume
            for entry in tracker.rounds
            if entry.round_index <= round_index
        ]
        reward = hypervolume_slope(history, window=self.reward_window)
        plays = self._plays.setdefault(workload, {})
        rewards = self._rewards.setdefault(workload, {})
        plays[arm] = plays.get(arm, 0) + 1
        rewards[arm] = rewards.get(arm, 0.0) + reward
        self._trace.append(
            {
                "workload": workload,
                "round": int(round_index),
                "arm": arm,
                "reward": float(reward),
            }
        )
        obs.event(
            "bandit.observe",
            workload=workload,
            round=int(round_index),
            arm=arm,
            reward=float(reward),
        )
        obs.add_counter("bandit.observations", 1)

    def allocation_trace(self) -> list[dict]:
        """Chronological ``{workload, round, arm, reward}`` records."""
        return [dict(entry) for entry in self._trace]

    def fingerprint(self) -> str:
        """Checkpoint descriptor: arms (ordered, with their own knobs) + bandit knobs."""
        described = ", ".join(
            f"{name}={self._describe_arm(arm)}" for name, arm in self.arms.items()
        )
        return (
            f"StrategyPortfolio(exploration={self.exploration}, "
            f"reward_window={self.reward_window}, arms=[{described}])"
        )

    @staticmethod
    def _describe_arm(arm: CandidateGenerator) -> str:
        fingerprint = getattr(arm, "fingerprint", None)
        return fingerprint() if callable(fingerprint) else type(arm).__name__
