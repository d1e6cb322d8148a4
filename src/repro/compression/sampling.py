"""The Lemma 7 rejection-sampling message simulation (and Figure 1).

Setting: all players know a prior :math:`\\nu` over a message universe
:math:`U`; the speaking player additionally knows the true message
distribution :math:`\\eta`.  Using shared randomness — an infinite
sequence of "darts" :math:`(x_1, p_1), (x_2, p_2), \\ldots` uniform on
:math:`U \\times [0, 1]` — the speaker communicates a sample
:math:`X \\sim \\eta` at expected cost
:math:`D(\\eta \\| \\nu) + O(\\log(D(\\eta \\| \\nu) + 1))` bits:

1. the speaker selects the first dart under the curve of :math:`\\eta`
   (dart :math:`i`, value :math:`x^*`);
2. it writes the *block index* :math:`B = \\lceil i / |U| \\rceil`
   (a geometric variable with constant expectation);
3. it writes the rounded log-ratio
   :math:`s = \\lceil \\log_2(\\eta(x^*) / \\nu(x^*)) \\rceil`
   in a variable-length code (``s`` may be negative — footnote 4);
4. every player forms the candidate set :math:`P'` — darts of block
   :math:`B` under the scaled prior :math:`\\min(2^s \\nu, 1)` — and the
   speaker writes the rank of its dart inside :math:`P'` at fixed width
   :math:`\\lceil \\log_2 |P'| \\rceil` (all players know :math:`|P'|`
   from the shared darts, so the width is self-delimiting).

Two implementations:

* :func:`run_naive_dart_protocol` — plays the scheme literally with the
  shared dart sequence; both the speaker's selection and the receiver's
  reconstruction are executed, and the test suite checks the receiver is
  always right and the output is exactly :math:`\\eta`-distributed.
  Cost: expected :math:`|U|` darts per message, so small universes only.

* :func:`simulate_sampling_round` — samples the *communicated values*
  ``(B, s, rank, |P'|)`` from their exact joint law without enumerating
  darts, so the cost simulation is polynomial even when :math:`U` is a
  product universe of astronomical size (the amortized Theorem 3
  setting).  The law used:

  - :math:`x^* \\sim \\eta` and the accepted dart index
    :math:`i \\sim \\mathrm{Geometric}(1/|U|)` are independent;
  - given block position, the other darts of the block are i.i.d.
    uniform, conditioned (for darts before :math:`i`) on lying *above*
    :math:`\\eta`'s curve; membership counts in :math:`P'` are therefore
    binomial with parameters derived from the three curve masses
    :math:`A_\\eta = 1`, :math:`A_g = \\sum_x \\min(2^s \\nu(x), 1)`, and
    :math:`A_{g \\wedge \\eta} = \\sum_x \\min(2^s\\nu(x), 1, \\eta(x))`.

  For enumerable universes the masses are computed exactly and the test
  suite verifies distributional agreement with the naive path.  For
  product universes (``exact_masses=False``) the simulator uses the
  bounds :math:`A_g \\le 2^s` and :math:`A_{g \\wedge \\eta} \\ge 0`,
  which can only *enlarge* :math:`P'` — the charged communication is an
  upper bound on the true protocol's, so every convergence result built
  on it is conservative.  (DESIGN.md records this substitution.)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..coding.varint import elias_gamma_length, zigzag_encode
from ..information.distribution import DiscreteDistribution
from ..obs.metrics import REGISTRY
from ..obs.trace import Tracer, get_tracer

__all__ = [
    "SamplerStepLimitError",
    "SamplingCost",
    "SampledMessage",
    "NaiveDartResult",
    "RoundCostMoments",
    "BatchedDartSampler",
    "run_naive_dart_protocol",
    "simulate_sampling_round",
    "expected_round_cost",
    "lemma7_cost_bound",
    "curve_masses",
    "cell_seed",
]

#: Darts :func:`run_naive_dart_protocol` throws without a block limit
#: before it gives up on the universe.
_MAX_DARTS = 10_000_000

#: Geometric block mass below which :func:`expected_round_cost`
#: truncates its block series.
_TAIL_EPSILON = 1e-12

#: Blocks :func:`expected_round_cost` sums at most: each block scales
#: the tail by ``(1 - 1/|U|)^|U| <= 1/e``, so 28 reach _TAIL_EPSILON.
_MAX_BLOCKS = 64

#: Increments the round-off guard of :func:`_covering_exponent` makes at
#: most; a rounded ceiling is off by one at worst.
_MAX_ROUNDOFF_STEPS = 4

#: Terms the Poisson inversion of :func:`_sample_poisson` adds at most.
_MAX_POISSON_TERMS = 10_001

#: The additive constant of :func:`lemma7_cost_bound`'s concrete curve.
LEMMA7_CONSTANT = 8.0


class SamplerStepLimitError(RuntimeError):
    """A sampler loop ran past its fixed step bound.  On valid inputs
    the bounds are never reached, so this marks broken arithmetic (or a
    universe too large for the naive dart path), not bad luck."""


@dataclass(frozen=True)
class SamplingCost:
    """Bit-level breakdown of one simulated message."""

    block_bits: int
    ratio_bits: int
    rank_bits: int

    @property
    def total_bits(self) -> int:
        return self.block_bits + self.ratio_bits + self.rank_bits


@dataclass(frozen=True)
class SampledMessage:
    """Result of one Lemma 7 round: the sampled message and its cost."""

    value: Any
    s: int                 # ⌈log2(η(x*) / ν(x*))⌉
    block: int             # B = ⌈i / |U|⌉
    rank: int              # 1-based rank of the dart inside P'
    candidate_count: int   # |P'|
    cost: SamplingCost


@dataclass(frozen=True)
class NaiveDartResult:
    """Result of the literal dart protocol, including the receiver side."""

    message: SampledMessage
    receiver_value: Any    # what the non-speaking players decode
    darts_used: int        # index i of the accepted dart
    failed: bool = False   # block-limit truncation fired (the lemma's ε)

    @property
    def agreed(self) -> bool:
        return self.receiver_value == self.message.value


def _log_ratio_ceil(eta_x: float, nu_x: float) -> int:
    """:math:`s = \\lceil \\log_2(\\eta(x)/\\nu(x)) \\rceil`; requires
    absolute continuity (:math:`\\nu(x) > 0` wherever :math:`\\eta(x) > 0`)."""
    if eta_x <= 0.0:
        raise ValueError("the selected point must have positive eta mass")
    if nu_x <= 0.0:
        raise ValueError(
            "prior assigns zero mass to a message the true distribution can "
            "send; the Lemma 7 scheme needs eta absolutely continuous "
            "w.r.t. nu"
        )
    return math.ceil(math.log2(eta_x / nu_x) - 1e-12)


def _covering_exponent(eta_x: float, nu_x: float) -> int:
    """:func:`_log_ratio_ceil`, raised past float round-off until
    ``eta(x) <= 2^s nu(x)``, so the accepted dart lies in ``P'``."""
    s = _log_ratio_ceil(eta_x, nu_x)
    for _ in range(_MAX_ROUNDOFF_STEPS):
        if 2.0**s * nu_x >= eta_x:
            return s
        s += 1
    raise SamplerStepLimitError(
        f"2^s nu(x) stays below eta(x) = {eta_x!r} after "
        f"{_MAX_ROUNDOFF_STEPS} round-off steps"
    )


def _rank_width(candidate_count: int) -> int:
    """Bits to write a rank in ``[1, candidate_count]`` at fixed width
    (zero bits when the candidate set is a singleton)."""
    if candidate_count < 1:
        raise ValueError("candidate set must contain the accepted dart")
    return (candidate_count - 1).bit_length()


def _block_bits(block: int) -> int:
    return elias_gamma_length(block)


def _ratio_bits(s: int) -> int:
    return elias_gamma_length(zigzag_encode(s) + 1)


def lemma7_cost_bound(divergence: float) -> float:
    """The Lemma 7 guarantee :math:`D + O(\\log(D + 1))` as a concrete
    curve ``D + 2*log2(D + 2) + LEMMA7_CONSTANT`` used by
    tests/benchmarks."""
    if divergence < 0.0:
        raise ValueError(f"divergence must be non-negative, got {divergence!r}")
    return divergence + 2.0 * math.log2(divergence + 2.0) + LEMMA7_CONSTANT


# ----------------------------------------------------------------------
# Literal dart protocol (small universes).
# ----------------------------------------------------------------------
def _record_round(
    tracer: Tracer,
    path: str,
    message: SampledMessage,
    *,
    darts_rejected: Optional[int] = None,
) -> None:
    """Shared observability tail for both sampler paths: one
    ``sampler_round`` trace event plus the sampler counters/histograms
    (``sampler_darts_rejected`` is only known on paths that enumerate
    or simulate the dart sequence)."""
    if tracer:
        fields = dict(
            path=path,
            s=message.s,
            block=message.block,
            rank=message.rank,
            candidates=message.candidate_count,
            bits=message.cost.total_bits,
        )
        if darts_rejected is not None:
            fields["darts_rejected"] = darts_rejected
        tracer.event("sampler_round", **fields)
    reg = REGISTRY if REGISTRY.enabled else None
    if reg is not None:
        reg.counter("sampler_rounds").inc(path=path)
        if darts_rejected is not None:
            reg.counter("sampler_darts_rejected").inc(
                darts_rejected, path=path
            )
        reg.histogram("sampler_s").observe(message.s, path=path)
        if message.candidate_count >= 0:
            reg.histogram("sampler_candidates").observe(
                message.candidate_count, path=path
            )
        reg.histogram("sampler_bits").observe(
            message.cost.total_bits, path=path
        )


def run_naive_dart_protocol(
    eta: DiscreteDistribution,
    nu: DiscreteDistribution,
    rng: random.Random,
    universe: Sequence[Any],
    *,
    block_limit: Optional[int] = None,
) -> NaiveDartResult:
    """Play Lemma 7's scheme with an explicit shared dart sequence.

    ``universe`` is the (finite) message domain :math:`U`; it must cover
    the support of :math:`\\eta`.  Both sides are simulated: the
    function returns the speaker's selected value *and* the value the
    receiving players decode from the communicated ``(B, s, rank)``,
    which must agree (asserted by tests, guaranteed by construction).

    ``block_limit`` implements the lemma's :math:`\\epsilon` truncation:
    if no dart under :math:`\\eta` appears within ``block_limit`` blocks,
    the speaker announces an abort (block index ``block_limit + 1``) and
    the parties disagree — this happens with probability
    :math:`(1 - 1/|U|)^{t |U|} \\le e^{-t}`, so ``t = ⌈ln(1/ε)⌉`` gives
    failure probability ε at a worst-case block cost of
    :math:`O(\\log(1/\\epsilon))` bits.
    """
    tracer = get_tracer()
    universe = list(universe)
    size = len(universe)
    if size < 1:
        raise ValueError("universe must be non-empty")
    if block_limit is not None and block_limit < 1:
        raise ValueError(f"block_limit must be >= 1, got {block_limit}")
    support = set(eta.support())
    if not support.issubset(set(universe)):
        raise ValueError("universe must cover the support of eta")

    # Generate darts lazily until the speaker accepts one; remember them
    # all because the block's darts are needed to build P'.
    darts: List[Tuple[Any, float]] = []
    accepted_index: Optional[int] = None
    dart_budget = _MAX_DARTS
    if block_limit is not None:
        dart_budget = min(dart_budget, block_limit * size)
    while accepted_index is None:
        if len(darts) >= dart_budget:
            if block_limit is not None:
                result = _abort_result(eta, rng, block_limit)
                reg = REGISTRY if REGISTRY.enabled else None
                if reg is not None:
                    reg.counter("sampler_aborts").inc(path="naive")
                    reg.counter("sampler_darts_thrown").inc(
                        len(darts), path="naive"
                    )
                if tracer:
                    tracer.event(
                        "sampler_abort",
                        path="naive",
                        block_limit=block_limit,
                        darts_thrown=len(darts),
                    )
                return result
            raise SamplerStepLimitError(
                f"no dart under eta within {_MAX_DARTS} darts; universe too "
                "large for the naive path"
            )
        x = universe[rng.randrange(size)]
        p = rng.random()
        darts.append((x, p))
        if p < eta[x]:
            accepted_index = len(darts)  # 1-based, the paper's i
    x_star, _p_star = darts[accepted_index - 1]

    block = (accepted_index + size - 1) // size
    s = _covering_exponent(eta[x_star], nu[x_star])
    scale = 2.0**s

    # Extend the shared sequence to the end of the block so that both
    # sides see the same P'.
    block_end = block * size
    while len(darts) < block_end:
        x = universe[rng.randrange(size)]
        p = rng.random()
        darts.append((x, p))
    block_start = (block - 1) * size  # 0-based slice start

    candidates = [
        index
        for index in range(block_start, block_end)
        if darts[index][1] < min(scale * nu[darts[index][0]], 1.0)
    ]
    # The accepted dart is under eta <= 2^s nu at x*, hence a candidate.
    rank = candidates.index(accepted_index - 1) + 1

    cost = SamplingCost(
        block_bits=_block_bits(block),
        ratio_bits=_ratio_bits(s),
        rank_bits=_rank_width(len(candidates)),
    )
    message = SampledMessage(
        value=x_star,
        s=s,
        block=block,
        rank=rank,
        candidate_count=len(candidates),
        cost=cost,
    )
    # Receiver side: knows the darts (shared randomness), B, s, rank.
    receiver_dart = candidates[rank - 1]
    receiver_value = darts[receiver_dart][0]
    reg = REGISTRY if REGISTRY.enabled else None
    if reg is not None:
        reg.counter("sampler_darts_thrown").inc(len(darts), path="naive")
    _record_round(
        tracer, "naive", message, darts_rejected=accepted_index - 1
    )
    return NaiveDartResult(
        message=message,
        receiver_value=receiver_value,
        darts_used=accepted_index,
    )


def _abort_result(
    eta: DiscreteDistribution, rng: random.Random, block_limit: int
) -> NaiveDartResult:
    """The truncation-failure outcome: the speaker still holds an
    η-sample, the receivers decode nothing useful."""
    value = eta.sample(rng)
    cost = SamplingCost(
        block_bits=_block_bits(block_limit + 1),  # the abort signal
        ratio_bits=0,
        rank_bits=0,
    )
    message = SampledMessage(
        value=value,
        s=0,
        block=block_limit + 1,
        rank=0,
        candidate_count=0,
        cost=cost,
    )
    return NaiveDartResult(
        message=message,
        receiver_value=None,
        darts_used=block_limit,
        failed=True,
    )


# ----------------------------------------------------------------------
# Exact-distribution simulation (any universe size).
# ----------------------------------------------------------------------
def curve_masses(
    eta: DiscreteDistribution,
    nu: DiscreteDistribution,
    s: int,
    universe: Sequence[Any],
) -> Tuple[float, float]:
    """The curve masses :math:`A_g = \\sum_x \\min(2^s\\nu(x), 1)` and
    :math:`A_{g \\wedge \\eta} = \\sum_x \\min(2^s\\nu(x), 1, \\eta(x))`
    over an explicit universe."""
    scale = 2.0**s
    a_g = 0.0
    a_g_eta = 0.0
    for x in universe:
        g = min(scale * nu[x], 1.0)
        a_g += g
        a_g_eta += min(g, eta[x])
    return a_g, a_g_eta


def simulate_sampling_round(
    eta: Optional[DiscreteDistribution],
    nu: Optional[DiscreteDistribution],
    rng: random.Random,
    *,
    universe_size: Optional[int] = None,
    universe: Optional[Sequence[Any]] = None,
    log_ratio: Optional[float] = None,
    value: Optional[Any] = None,
) -> SampledMessage:
    """Sample one Lemma 7 round from the exact joint law of everything
    the speaker communicates, without enumerating darts.

    Parameters
    ----------
    eta, nu:
        True distribution and prior.  For product universes, callers may
        instead pass ``value`` and ``log_ratio`` directly (see below) and
        use ``eta``/``nu`` only as per-copy factors.
    universe:
        Explicit universe; enables exact curve masses (validated against
        the naive path).  Mutually exclusive with ``universe_size``.
    universe_size:
        Universe cardinality when the universe itself is too large to
        enumerate; curve masses then use the conservative bounds
        :math:`A_g = \\min(2^s, |U|)`, :math:`A_{g\\wedge\\eta} = 0`,
        which can only overstate the cost.
    log_ratio, value:
        Pre-sampled message and its log-likelihood ratio
        :math:`\\log_2(\\eta(value)/\\nu(value))`; used by the amortized
        compressor, which samples product messages copy by copy.
    """
    if (universe is None) == (universe_size is None):
        raise ValueError("pass exactly one of universe / universe_size")
    if universe is not None:
        size = len(universe)
    else:
        size = int(universe_size)  # type: ignore[arg-type]
    if size < 1:
        raise ValueError("universe must be non-empty")

    if value is None:
        if eta is None:
            raise ValueError("pass eta or a pre-sampled value")
        value = eta.sample(rng)
    if log_ratio is None:
        if eta is None or nu is None:
            raise ValueError("pass (eta, nu) or a pre-computed log_ratio")
        s = _log_ratio_ceil(eta[value], nu[value])
    else:
        s = math.ceil(log_ratio - 1e-12)

    # Accepted dart index i ~ Geometric(1/|U|); derive block and the
    # within-block position.  For huge universes, sample in the
    # exponential limit (error O(1/|U|)).
    small_universe = size <= 2**48
    if small_universe:
        p_accept = 1.0 / size
        i = _sample_geometric(rng, p_accept)
        block = (i + size - 1) // size
        position = i - (block - 1) * size  # 1-based within the block
        before = position - 1
        after = size - position
        v = position / size
    else:
        # i/|U| -> Exponential(1): block = ceil(E), v = E - (block - 1).
        exponential = -math.log(1.0 - rng.random())
        block = max(int(math.ceil(exponential)), 1)
        v = min(max(exponential - (block - 1), 0.0), 1.0)
        before = after = 0  # unused; counts come from the Poisson limit

    # Curve masses.  `log2_size` caps the scaled-prior mass at |U| without
    # materializing huge floats.
    log2_size = size.bit_length() - 1
    if universe is not None:
        a_g, a_g_eta = curve_masses(eta, nu, s, universe)
        a_g_log2 = None
    elif s <= min(log2_size, 500):
        a_g = 2.0**s
        a_g_eta = 0.0
        a_g_log2 = None
    else:
        # The scaled prior's mass is astronomically large (or the cap |U|
        # binds); |P'| concentrates so tightly around its mean that the
        # rank width is its log, computed analytically.
        a_g = a_g_eta = 0.0
        a_g_log2 = float(min(s, log2_size))

    if a_g_log2 is not None:
        expected_log2 = a_g_log2 + math.log2(max(v, 1e-18))
        rank_bits = max(int(math.ceil(expected_log2)), 0)
        candidate_count = 1 << rank_bits if rank_bits < 10_000 else -1
        rank = max(candidate_count // 2, 1)
    else:
        # Candidates among the rejected darts before the accepted one lie
        # under g but not under eta; darts after it just lie under g.
        if small_universe:
            p_before = max(a_g - a_g_eta, 0.0) / max(size - 1.0, 1.0)
            p_after = a_g / size
            count_before = _sample_binomial(rng, before, min(p_before, 1.0))
            count_after = _sample_binomial(rng, after, min(p_after, 1.0))
        else:
            count_before = _sample_poisson(rng, v * max(a_g - a_g_eta, 0.0))
            count_after = _sample_poisson(rng, max(1.0 - v, 0.0) * a_g)
        candidate_count = count_before + count_after + 1
        rank = count_before + 1
        rank_bits = _rank_width(candidate_count)

    cost = SamplingCost(
        block_bits=_block_bits(block),
        ratio_bits=_ratio_bits(s),
        rank_bits=rank_bits,
    )
    message = SampledMessage(
        value=value,
        s=s,
        block=block,
        rank=rank,
        candidate_count=candidate_count,
        cost=cost,
    )
    # The fast path never materializes darts, but the accepted index i is
    # part of its joint law, so the implied rejection count is exact.
    _record_round(
        get_tracer(),
        "fast",
        message,
        darts_rejected=(i - 1) if small_universe else None,
    )
    return message


# ----------------------------------------------------------------------
# Batched sampler: many grid cells advanced in lockstep.
# ----------------------------------------------------------------------
def cell_seed(seed: int, index: int) -> int:
    """The derived seed of cell ``index`` under a batch seed.

    Exposed so tests (and callers wanting the scalar path) can construct
    the exact per-cell ``random.Random`` streams a
    :class:`BatchedDartSampler` uses.
    """
    return (seed * 0x9E3779B97F4A7C15 + index) % (1 << 63)


class BatchedDartSampler:
    """Advance many grid cells' Lemma 7 samplers in lockstep.

    Each cell is an ``(eta, nu, universe)`` triple with its own seeded
    ``random.Random`` stream (see :func:`cell_seed`), and every round of
    every cell draws from that stream **in exactly the order the scalar
    path does** — cell ``c``'s round-``r`` message is bit-identical to
    the ``r``-th :func:`simulate_sampling_round` call on a fresh
    ``random.Random(cell_seed(seed, c))`` with the same ``(eta, nu,
    universe)``.

    What makes it fast is everything that *doesn't* touch the RNG: the
    per-cell cumulative tables for value sampling (a ``searchsorted``
    replaces the scalar path's linear scan) and the per-``(cell, s)``
    curve masses (one vectorized reduction, cached — the scalar path
    recomputes an :math:`O(|U|)` sum every round).  All float operations
    replicate the scalar fold order, so the cached values are the exact
    floats the scalar path produces.
    """

    def __init__(
        self,
        cells: Sequence[Tuple[DiscreteDistribution, DiscreteDistribution,
                              Sequence[Any]]],
        *,
        seed: int = 0,
        seeds: Optional[Sequence[int]] = None,
    ) -> None:
        from ..perf import kernels

        self._np = kernels.require_numpy()
        self._ordered_sum = kernels.ordered_sum
        self._count_call = kernels._count_call
        if not cells:
            raise ValueError("need at least one cell")
        if seeds is not None and len(seeds) != len(cells):
            raise ValueError(
                f"{len(seeds)} seeds given for {len(cells)} cells"
            )
        self._cells: List[Tuple[Any, ...]] = []
        self._rngs: List[random.Random] = []
        np_ = self._np
        for index, (eta, nu, universe) in enumerate(cells):
            universe = list(universe)
            size = len(universe)
            if size < 1:
                raise ValueError("universe must be non-empty")
            support: List[Any] = []
            probs: List[float] = []
            for outcome, p in eta.items():
                support.append(outcome)
                probs.append(p)
            # np.add.accumulate is a sequential fold, so the table holds
            # the exact running sums eta.sample's scan computes.
            cumulative = np_.add.accumulate(
                np_.array(probs, dtype=np_.float64)
            )
            eta_arr = np_.array(
                [eta[x] for x in universe], dtype=np_.float64
            )
            nu_arr = np_.array(
                [nu[x] for x in universe], dtype=np_.float64
            )
            self._cells.append(
                (eta, nu, size, support, cumulative, eta_arr, nu_arr, {})
            )
            cell = seeds[index] if seeds is not None else cell_seed(
                seed, index
            )
            self._rngs.append(random.Random(cell))

    def __len__(self) -> int:
        return len(self._cells)

    def _masses(self, cell: Tuple[Any, ...], s: int) -> Tuple[float, float]:
        """Curve masses for one cell at scale ``2**s``, cached.

        Same fold as :func:`curve_masses`: elementwise ``min`` then a
        left-to-right sum from 0.0 in universe order.
        """
        cache = cell[7]
        masses = cache.get(s)
        if masses is None:
            np_ = self._np
            scale = 2.0**s
            g = np_.minimum(scale * cell[6], 1.0)
            g_eta = np_.minimum(g, cell[5])
            masses = cache[s] = (
                self._ordered_sum(g), self._ordered_sum(g_eta)
            )
        return masses

    def sample_round(self) -> List[SampledMessage]:
        """One Lemma 7 round for every cell, in cell order."""
        tracer = get_tracer()
        self._count_call("batched_sampler_round")
        np_ = self._np
        messages: List[SampledMessage] = []
        for cell, rng in zip(self._cells, self._rngs):
            eta, nu, size, support, cumulative, _ea, _na, _cache = cell
            # value = eta.sample(rng): the scan's "first running sum
            # exceeding u" is searchsorted side='right' (u == sum keeps
            # scanning in both), with the same round-off fallback to the
            # last outcome.
            u = rng.random()
            position = int(np_.searchsorted(cumulative, u, side="right"))
            if position >= len(support):
                position = len(support) - 1
            value = support[position]
            s = _log_ratio_ceil(eta[value], nu[value])
            i = _sample_geometric(rng, 1.0 / size)
            block = (i + size - 1) // size
            within = i - (block - 1) * size
            before = within - 1
            after = size - within
            a_g, a_g_eta = self._masses(cell, s)
            p_before = max(a_g - a_g_eta, 0.0) / max(size - 1.0, 1.0)
            p_after = a_g / size
            count_before = _sample_binomial(rng, before, min(p_before, 1.0))
            count_after = _sample_binomial(rng, after, min(p_after, 1.0))
            candidate_count = count_before + count_after + 1
            rank = count_before + 1
            cost = SamplingCost(
                block_bits=_block_bits(block),
                ratio_bits=_ratio_bits(s),
                rank_bits=_rank_width(candidate_count),
            )
            message = SampledMessage(
                value=value,
                s=s,
                block=block,
                rank=rank,
                candidate_count=candidate_count,
                cost=cost,
            )
            _record_round(tracer, "batched", message, darts_rejected=i - 1)
            messages.append(message)
        return messages

    def advance(self, rounds: int) -> List[List[SampledMessage]]:
        """``rounds`` lockstep rounds; ``result[r][c]`` is cell ``c``'s
        round-``r`` message."""
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds}")
        return [self.sample_round() for _ in range(rounds)]


# ----------------------------------------------------------------------
# Exact cost moments (no sampling at all).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RoundCostMoments:
    """Exact first and second moments of one Lemma 7 round's cost.

    Computed from the joint law of everything the speaker communicates
    (see :func:`expected_round_cost`); ``mean_darts`` is the exact
    expected number of darts the naive path throws before accepting,
    which is :math:`|U|` (per-dart acceptance probability is exactly
    :math:`\\sum_x \\frac{1}{|U|} \\eta(x) = 1/|U|`).
    """

    mean_bits: float
    second_moment_bits: float
    mean_darts: float

    @property
    def variance_bits(self) -> float:
        return max(self.second_moment_bits - self.mean_bits**2, 0.0)

    @property
    def std_bits(self) -> float:
        return math.sqrt(self.variance_bits)


def _binomial_pmf(n: int, p: float) -> List[float]:
    """The full Binomial(n, p) pmf (n is a universe size here, so tiny)."""
    pmf = [0.0] * (n + 1)
    q = 1.0 - p
    value = q**n if q > 0.0 else (1.0 if n == 0 else 0.0)
    pmf[0] = value
    for c in range(n):
        if q <= 0.0:
            pmf[n] = 1.0
            break
        value *= (n - c) / (c + 1.0) * (p / q)
        pmf[c + 1] = value
    return pmf


def expected_round_cost(
    eta: DiscreteDistribution,
    nu: DiscreteDistribution,
    universe: Sequence[Any],
) -> RoundCostMoments:
    """The exact mean and second moment of ``cost.total_bits`` for one
    (un-truncated) Lemma 7 round over ``universe``.

    This is the analytic counterpart of averaging
    :func:`run_naive_dart_protocol` (equivalently
    :func:`simulate_sampling_round` with an explicit universe — the fast
    path samples the same joint law) over infinitely many trials, and is
    what the statistical-tolerance tests compare the empirical means
    against.

    Derivation.  Condition on the accepted value :math:`x^* \\sim \\eta`
    (independent of the accepted dart index :math:`i`, which is
    Geometric(:math:`1/|U|`)).  Write :math:`i = (b-1)|U| + m` with block
    :math:`b \\ge 1` and within-block position :math:`m \\in [1, |U|]`;
    the geometric pmf factorizes, so the block and the position are
    *independent*.  Given :math:`(x^*, m)`, the other darts of the block
    are i.i.d. — the :math:`m-1` rejected darts before the accepted one
    land in :math:`P'` with probability
    :math:`(A_g - A_{g\\wedge\\eta}) / (|U| - 1)` each and the
    :math:`|U| - m` darts after it with probability :math:`A_g / |U|` —
    so the rank width is a functional of two small binomials, enumerated
    exactly.  The block series is truncated once its remaining geometric
    mass drops below :data:`_TAIL_EPSILON` (each block contributes a factor
    :math:`(1 - 1/|U|)^{|U|} \\le e^{-1}`, so 28 blocks suffice; past
    :data:`_MAX_BLOCKS` it raises :class:`SamplerStepLimitError`).
    """
    universe = list(universe)
    size = len(universe)
    if size < 1:
        raise ValueError("universe must be non-empty")
    if not set(eta.support()).issubset(set(universe)):
        raise ValueError("universe must cover the support of eta")

    p_accept = 1.0 / size
    q = 1.0 - p_accept
    block_factor = q**size  # P[no dart of a block accepts]

    # Block-bits moments: P[B = b] = q^{(b-1)|U|} (1 - q^{|U|}).
    block_mean = 0.0
    block_second = 0.0
    b = 1
    tail = 1.0  # P[B >= b]
    while tail > _TAIL_EPSILON:
        if b > _MAX_BLOCKS:
            raise SamplerStepLimitError(
                f"block tail {tail!r} still above {_TAIL_EPSILON} after "
                f"{_MAX_BLOCKS} blocks"
            )
        p_block = tail * (1.0 - block_factor)
        bits = _block_bits(b)
        block_mean += p_block * bits
        block_second += p_block * bits * bits
        tail *= block_factor
        b += 1
    # Charge the (provably tiny) truncated tail at the last block's cost
    # so the moments remain a distribution's moments up to _TAIL_EPSILON.
    if tail > 0.0:
        bits = _block_bits(b)
        block_mean += tail * bits
        block_second += tail * bits * bits

    # Position pmf: P[m] = q^{m-1} p / (1 - q^{|U|}), m = 1..|U|.
    position_pmf = [
        (q ** (m - 1)) * p_accept / (1.0 - block_factor)
        for m in range(1, size + 1)
    ]

    mean_bits = 0.0
    second_bits = 0.0
    for x, eta_x in eta.items():
        if eta_x <= 0.0:
            continue
        s = _covering_exponent(eta_x, nu[x])
        a_g, a_g_eta = curve_masses(eta, nu, s, universe)
        p_before = max(a_g - a_g_eta, 0.0) / max(size - 1.0, 1.0)
        p_after = a_g / size
        ratio = _ratio_bits(s)

        rank_mean = 0.0
        rank_second = 0.0
        for m in range(1, size + 1):
            before_pmf = _binomial_pmf(m - 1, min(p_before, 1.0))
            after_pmf = _binomial_pmf(size - m, min(p_after, 1.0))
            conditional_mean = 0.0
            conditional_second = 0.0
            for count_before, p_b in enumerate(before_pmf):
                for count_after, p_a in enumerate(after_pmf):
                    width = _rank_width(1 + count_before + count_after)
                    weight = p_b * p_a
                    conditional_mean += weight * width
                    conditional_second += weight * width * width
            rank_mean += position_pmf[m - 1] * conditional_mean
            rank_second += position_pmf[m - 1] * conditional_second

        # Block bits are independent of (position, rank bits); ratio bits
        # are deterministic given x*.
        mean_x = block_mean + ratio + rank_mean
        second_x = (
            block_second
            + ratio * ratio
            + rank_second
            + 2.0 * (block_mean * ratio + block_mean * rank_mean + ratio * rank_mean)
        )
        mean_bits += eta_x * mean_x
        second_bits += eta_x * second_x

    return RoundCostMoments(
        mean_bits=mean_bits,
        second_moment_bits=second_bits,
        mean_darts=float(size),
    )


# ----------------------------------------------------------------------
# Exact samplers for the auxiliary laws.  Each draws from a single
# ``random.Random`` so that a cell's RNG stream is fully reproducible;
# the batched sampler above reuses these scalar draws per cell (numpy —
# now a real dependency, see ``repro.perf.kernels`` — only vectorizes
# the draw-free curve-mass and cumulative-table work).
# ----------------------------------------------------------------------
def _sample_geometric(rng: random.Random, p: float) -> int:
    """Number of trials to first success, support {1, 2, ...}."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p!r}")
    if p == 1.0:
        return 1
    u = 1.0 - rng.random()  # in (0, 1]
    return int(math.floor(math.log(u) / math.log(1.0 - p))) + 1


def _sample_binomial(rng: random.Random, n: int, p: float) -> int:
    """Binomial(n, p) via inversion for small means, else normal tail-safe
    Poisson/Gaussian hybrid (exactness matters only for small n here;
    large-n draws use the Poisson limit which is the regime they model)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    mean = n * p
    if n <= 64:
        return sum(1 for _ in range(n) if rng.random() < p)
    if mean <= 32.0:
        # Poisson approximation territory, but stay exact with inversion
        # on the binomial pmf.
        u = rng.random()
        cumulative = 0.0
        pmf = (1.0 - p) ** n
        value = 0
        while value < n:
            cumulative += pmf
            if u < cumulative:
                return value
            pmf *= (n - value) / (value + 1.0) * (p / (1.0 - p))
            value += 1
        return n
    # Large mean: normal approximation with continuity correction; the
    # quantities fed here are dart counts whose log only matters to O(1).
    std = math.sqrt(n * p * (1.0 - p))
    value = int(round(rng.gauss(mean, std)))
    return min(max(value, 0), n)


def _sample_poisson(rng: random.Random, mean: float) -> int:
    """Poisson(mean) via inversion (small mean) or normal approximation."""
    if mean < 0.0:
        raise ValueError(f"mean must be >= 0, got {mean!r}")
    if mean == 0.0:
        return 0
    if mean <= 64.0:
        u = rng.random()
        cumulative = 0.0
        pmf = math.exp(-mean)
        value = 0
        for _ in range(_MAX_POISSON_TERMS):
            cumulative += pmf
            if u < cumulative:
                return value
            value += 1
            pmf *= mean / value
        raise SamplerStepLimitError(
            f"Poisson({mean!r}) inversion passed {_MAX_POISSON_TERMS} terms"
        )
    value = int(round(rng.gauss(mean, math.sqrt(mean))))
    return max(value, 0)
