"""Finite discrete probability distributions.

This module provides the probability substrate used throughout the
reproduction.  Everything in the paper — transcript distributions, the hard
input distribution :math:`\\mu`, posteriors, priors for compression — is a
finite discrete distribution, so we represent distributions explicitly as a
mapping from hashable outcomes to probabilities and compute all
information-theoretic quantities exactly (up to floating point).

Two classes are provided:

* :class:`DiscreteDistribution` — a distribution over arbitrary hashable
  outcomes.
* :class:`JointDistribution` — a distribution over fixed-length tuples with
  marginalization and conditioning helpers, used to hold joint laws such as
  ``(X, Z, transcript)``.

Design notes
------------
Probabilities are plain Python floats.  Outcomes with probability exactly
zero are dropped on construction, so ``support()`` is always the effective
support.  All constructors validate that the mass sums to 1 within a
tolerance and renormalize, so accumulated float error never compounds
across the many conditioning operations the analysis performs.
"""

from __future__ import annotations

import math
import random
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "DiscreteDistribution",
    "JointDistribution",
    "Outcome",
]

Outcome = Hashable

#: Tolerance used when checking that probability mass sums to one.
_MASS_TOLERANCE = 1e-9


class DiscreteDistribution:
    """An exact finite discrete probability distribution.

    Parameters
    ----------
    probabilities:
        Mapping from outcome to probability.  The mass must sum to one
        within a small tolerance unless ``normalize=True`` is given, in
        which case any positive total mass is accepted and rescaled.
    normalize:
        If true, rescale the given (non-negative) weights to sum to one.

    Examples
    --------
    >>> coin = DiscreteDistribution({"heads": 0.5, "tails": 0.5})
    >>> coin["heads"]
    0.5
    >>> coin["edge"]
    0.0
    """

    __slots__ = ("_probs", "_entropy", "_support", "_columns")

    def __init__(
        self,
        probabilities: Mapping[Outcome, float],
        *,
        normalize: bool = False,
    ) -> None:
        total = float(sum(probabilities.values()))
        if normalize:
            if total <= 0.0:
                raise ValueError("cannot normalize: total mass is not positive")
            scale = 1.0 / total
        else:
            if not math.isclose(total, 1.0, rel_tol=0, abs_tol=_MASS_TOLERANCE):
                raise ValueError(
                    f"probabilities must sum to 1 (got {total!r}); "
                    "pass normalize=True to rescale"
                )
            scale = 1.0 / total  # remove residual float drift
        probs: Dict[Outcome, float] = {}
        for outcome, p in probabilities.items():
            p = float(p)
            if p < 0.0:
                if p < -_MASS_TOLERANCE:
                    raise ValueError(f"negative probability {p!r} for {outcome!r}")
                p = 0.0
            if p > 0.0:
                probs[outcome] = p * scale
        if not probs:
            raise ValueError("distribution has empty support")
        self._probs = probs
        # Lazy caches — the distribution is immutable, so the entropy and
        # the support tuple are computed at most once per instance (the
        # chain-rule analyses call both repeatedly on the same marginals).
        self._entropy: Optional[float] = None
        self._support: Optional[Tuple[Outcome, ...]] = None
        # The encoded input population (``repro.perf.kernels.
        # InputColumns``), filled by the exact analyzer on first use or
        # by a constructor that knows its row order.
        self._columns: Any = None

    def __getstate__(self) -> Tuple[None, Dict[str, Any]]:
        # Pickles and copies carry the outcome dict, not the column
        # encoding (re-encoded on first use).
        return None, {
            "_probs": self._probs,
            "_entropy": self._entropy,
            "_support": self._support,
            "_columns": None,
        }

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, outcomes: Iterable[Outcome]) -> "DiscreteDistribution":
        """The uniform distribution over ``outcomes`` (must be non-empty)."""
        items = list(outcomes)
        if not items:
            raise ValueError("uniform distribution needs at least one outcome")
        p = 1.0 / len(items)
        # Duplicate outcomes accumulate mass, matching sampling-with-
        # replacement semantics.
        probs: Dict[Outcome, float] = {}
        for item in items:
            probs[item] = probs.get(item, 0.0) + p
        return cls(probs)

    @classmethod
    def point_mass(cls, outcome: Outcome) -> "DiscreteDistribution":
        """The distribution placing all mass on ``outcome``.

        Built directly: the validating constructor would store exactly
        ``1.0 * (1.0 / 1.0) == 1.0``, so skipping it changes no bit.
        """
        return cls._from_normalized({outcome: 1.0})

    @classmethod
    def _from_normalized(
        cls, probs: Dict[Outcome, float]
    ) -> "DiscreteDistribution":
        """Wrap ``probs`` as is, skipping validation and normalization.

        For hot paths only: the caller guarantees ``probs`` holds exactly
        what the validating constructor would have stored (positive
        floats, already scaled), and hands over ownership of the dict.
        """
        dist = cls.__new__(cls)
        dist._probs = probs
        dist._entropy = None
        dist._support = None
        dist._columns = None
        return dist

    @classmethod
    def from_weights(
        cls, weights: Mapping[Outcome, float]
    ) -> "DiscreteDistribution":
        """Normalize arbitrary non-negative weights into a distribution."""
        return cls(weights, normalize=True)

    @classmethod
    def from_samples(cls, samples: Iterable[Outcome]) -> "DiscreteDistribution":
        """The empirical distribution of a sequence of observations."""
        counts: Dict[Outcome, float] = {}
        n = 0
        for sample in samples:
            counts[sample] = counts.get(sample, 0.0) + 1.0
            n += 1
        if n == 0:
            raise ValueError("cannot build a distribution from zero samples")
        return cls(counts, normalize=True)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __getitem__(self, outcome: Outcome) -> float:
        return self._probs.get(outcome, 0.0)

    def __contains__(self, outcome: Outcome) -> bool:
        return outcome in self._probs

    def __iter__(self) -> Iterator[Outcome]:
        return iter(self._probs)

    def __len__(self) -> int:
        return len(self._probs)

    def items(self) -> Iterable[Tuple[Outcome, float]]:
        """Iterate over ``(outcome, probability)`` pairs of the support."""
        return self._probs.items()

    def support(self) -> List[Outcome]:
        """All outcomes with strictly positive probability.

        Returns a fresh list (callers may mutate it); the underlying
        tuple is cached.
        """
        if self._support is None:
            self._support = tuple(self._probs)
        return list(self._support)

    def entropy(self) -> float:
        """Shannon entropy :math:`H` of this distribution in bits, cached.

        The summation is identical, term for term, to the historical
        :func:`repro.information.entropy.entropy` free function (which now
        delegates here), so cached and uncached values are bit-identical.
        """
        if self._entropy is None:
            self._entropy = -sum(
                p * math.log2(p) for _, p in self._probs.items() if p > 0.0
            )
        return self._entropy

    def as_dict(self) -> Dict[Outcome, float]:
        """A copy of the underlying outcome → probability mapping."""
        return dict(self._probs)

    def mode(self) -> Outcome:
        """An outcome of maximal probability."""
        return max(self._probs, key=self._probs.__getitem__)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Outcome], Outcome]) -> "DiscreteDistribution":
        """The pushforward distribution of ``fn`` applied to an outcome."""
        probs: Dict[Outcome, float] = {}
        for outcome, p in self._probs.items():
            image = fn(outcome)
            probs[image] = probs.get(image, 0.0) + p
        return DiscreteDistribution(probs, normalize=True)

    def condition(
        self, predicate: Callable[[Outcome], bool]
    ) -> "DiscreteDistribution":
        """The conditional distribution given that ``predicate`` holds.

        Raises ``ValueError`` if the event has zero probability.
        """
        probs = {o: p for o, p in self._probs.items() if predicate(o)}
        if not probs:
            raise ValueError("conditioning event has probability zero")
        return DiscreteDistribution(probs, normalize=True)

    def probability(self, predicate: Callable[[Outcome], bool]) -> float:
        """The probability of the event ``{o : predicate(o)}``."""
        return sum(p for o, p in self._probs.items() if predicate(o))

    def expect(self, fn: Callable[[Outcome], float]) -> float:
        """The expectation of ``fn`` under this distribution."""
        return sum(p * fn(o) for o, p in self._probs.items())

    def product(self, other: "DiscreteDistribution") -> "DiscreteDistribution":
        """The independent product; outcomes are ``(self_outcome, other_outcome)``."""
        probs = {
            (a, b): pa * pb
            for a, pa in self._probs.items()
            for b, pb in other._probs.items()
        }
        return DiscreteDistribution(probs, normalize=True)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, rng: random.Random) -> Outcome:
        """Draw one outcome using the supplied ``random.Random`` instance."""
        u = rng.random()
        cumulative = 0.0
        last = None
        for outcome, p in self._probs.items():
            cumulative += p
            last = outcome
            if u < cumulative:
                return outcome
        # Float round-off can leave cumulative fractionally below 1.
        return last

    def sample_many(self, rng: random.Random, count: int) -> List[Outcome]:
        """Draw ``count`` i.i.d. outcomes."""
        return [self.sample(rng) for _ in range(count)]

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def is_close(
        self, other: "DiscreteDistribution", *, tolerance: float = 1e-9
    ) -> bool:
        """Whether the two distributions agree pointwise within ``tolerance``."""
        outcomes = set(self._probs) | set(other._probs)
        return all(
            math.isclose(self[o], other[o], rel_tol=0, abs_tol=tolerance)
            for o in outcomes
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.is_close(other)

    def __hash__(self) -> int:  # pragma: no cover - distributions are not hashed
        raise TypeError("DiscreteDistribution is unhashable")

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{o!r}: {p:.4g}" for o, p in sorted(
                self._probs.items(), key=lambda item: -item[1]
            )[:4]
        )
        suffix = ", ..." if len(self._probs) > 4 else ""
        return f"DiscreteDistribution({{{preview}{suffix}}})"


def _checked_names(
    names: Optional[Sequence[str]], arity: int
) -> Optional[Tuple[str, ...]]:
    if names is None:
        return None
    names = tuple(names)
    if len(names) != arity:
        raise ValueError(f"{len(names)} names given for {arity} components")
    if len(set(names)) != len(names):
        raise ValueError("component names must be distinct")
    return names


class JointDistribution:
    """A joint distribution over fixed-length tuples of component values.

    This is the workhorse for information-cost analysis: the exact joint
    law of (input coordinates, auxiliary variable, transcript) produced by
    :mod:`repro.core.tree` is a :class:`JointDistribution`, and every
    entropy / mutual-information quantity in the paper is computed from it
    by marginalizing and conditioning.

    Component positions may optionally be given string names so call sites
    can say ``joint.mutual_information("transcript", "inputs")`` instead of
    tracking indices.
    """

    __slots__ = ("_law", "_arity", "_names", "_columns")

    def __init__(
        self,
        probabilities: Mapping[Tuple[Outcome, ...], float],
        *,
        names: Optional[Sequence[str]] = None,
        normalize: bool = False,
    ) -> None:
        self._law: Optional[DiscreteDistribution] = DiscreteDistribution(
            probabilities, normalize=normalize
        )
        arities = {len(outcome) for outcome in self._law.support()}
        if len(arities) != 1:
            raise ValueError("all outcomes of a joint distribution must be "
                             f"tuples of equal length, got lengths {arities}")
        self._arity = arities.pop()
        self._names = _checked_names(names, self._arity)
        # The column encoding (``repro.perf.kernels.JointColumns``),
        # built on first use by the vectorized functionals.
        self._columns: Any = None

    @classmethod
    def _from_columns(
        cls,
        columns: Any,
        arity: int,
        names: Optional[Sequence[str]] = None,
    ) -> "JointDistribution":
        """A joint law given by its column encoding, whose outcome dict
        is built only when something asks for it.

        For the exact analyzer's hot path only: ``columns.p`` holds
        exactly the values the normalizing constructor would store, and
        ``columns.outcomes()`` returns the distinct outcome tuples, all
        of length ``arity``, in item order.
        """
        joint = cls.__new__(cls)
        joint._law = None
        joint._arity = arity
        joint._names = _checked_names(names, arity)
        joint._columns = columns
        return joint

    def __getstate__(self) -> Tuple[None, Dict[str, Any]]:
        # Pickles and copies carry the outcome dict, not the columns
        # (whose deferred outcome dict comes from a closure over the walk).
        return None, {
            "_law": self._dist,
            "_arity": self._arity,
            "_names": self._names,
            "_columns": None,
        }

    def _support_size(self) -> int:
        if self._law is None:
            return len(self._columns.p)
        return len(self._law)

    @property
    def _dist(self) -> DiscreteDistribution:
        law = self._law
        if law is None:
            columns = self._columns
            law = self._law = DiscreteDistribution._from_normalized(
                dict(zip(columns.outcomes(), columns.p.tolist()))
            )
            columns.outcomes = None  # release the walk's arrays
        return law

    # ------------------------------------------------------------------
    # Index resolution
    # ------------------------------------------------------------------
    def _resolve(self, component: Any) -> int:
        if isinstance(component, str):
            if self._names is None:
                raise KeyError(
                    f"joint distribution has no component names; cannot "
                    f"resolve {component!r}"
                )
            try:
                return self._names.index(component)
            except ValueError:
                raise KeyError(f"unknown component name {component!r}") from None
        index = int(component)
        if not 0 <= index < self._arity:
            raise IndexError(f"component index {index} out of range "
                             f"for arity {self._arity}")
        return index

    def _resolve_many(self, components: Any) -> Tuple[int, ...]:
        if isinstance(components, (str, int)):
            return (self._resolve(components),)
        return tuple(self._resolve(c) for c in components)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """The number of components of each outcome tuple."""
        return self._arity

    @property
    def names(self) -> Optional[Tuple[str, ...]]:
        """The component names, if any were given."""
        return self._names

    def distribution(self) -> DiscreteDistribution:
        """The underlying tuple-valued distribution."""
        return self._dist

    def items(self) -> Iterable[Tuple[Tuple[Outcome, ...], float]]:
        return self._dist.items()

    def __getitem__(self, outcome: Tuple[Outcome, ...]) -> float:
        return self._dist[outcome]

    def support(self) -> List[Tuple[Outcome, ...]]:
        return self._dist.support()

    def sample(self, rng: random.Random) -> Tuple[Outcome, ...]:
        return self._dist.sample(rng)

    # ------------------------------------------------------------------
    # Marginals and conditionals
    # ------------------------------------------------------------------
    def marginal(self, components: Any) -> DiscreteDistribution:
        """The marginal over the given component(s).

        A single index/name yields a distribution over plain values; a
        sequence yields a distribution over tuples in the given order.
        """
        single = isinstance(components, (str, int))
        indices = self._resolve_many(components)
        probs: Dict[Outcome, float] = {}
        for outcome, p in self._dist.items():
            key: Outcome
            if single:
                key = outcome[indices[0]]
            else:
                key = tuple(outcome[i] for i in indices)
            probs[key] = probs.get(key, 0.0) + p
        return DiscreteDistribution(probs, normalize=True)

    def conditional(
        self,
        target: Any,
        given: Any,
        given_value: Outcome,
    ) -> DiscreteDistribution:
        """The conditional law of ``target`` given ``given == given_value``.

        ``given_value`` must be a tuple when ``given`` is a sequence of
        components, mirroring :meth:`marginal`'s conventions.
        """
        single_target = isinstance(target, (str, int))
        target_idx = self._resolve_many(target)
        single_given = isinstance(given, (str, int))
        given_idx = self._resolve_many(given)

        probs: Dict[Outcome, float] = {}
        for outcome, p in self._dist.items():
            observed: Outcome
            if single_given:
                observed = outcome[given_idx[0]]
            else:
                observed = tuple(outcome[i] for i in given_idx)
            if observed != given_value:
                continue
            key: Outcome
            if single_target:
                key = outcome[target_idx[0]]
            else:
                key = tuple(outcome[i] for i in target_idx)
            probs[key] = probs.get(key, 0.0) + p
        if not probs:
            raise ValueError(
                f"conditioning event {given!r} == {given_value!r} has "
                "probability zero"
            )
        return DiscreteDistribution(probs, normalize=True)

    def condition(
        self, predicate: Callable[[Tuple[Outcome, ...]], bool]
    ) -> "JointDistribution":
        """Condition the whole joint law on an arbitrary event."""
        conditioned = self._dist.condition(predicate)
        return JointDistribution(
            conditioned.as_dict(), names=self._names
        )

    def append_component(
        self,
        fn: Callable[[Tuple[Outcome, ...]], Outcome],
        *,
        name: Optional[str] = None,
    ) -> "JointDistribution":
        """Extend each outcome with a deterministic function of the tuple."""
        probs: Dict[Tuple[Outcome, ...], float] = {}
        for outcome, p in self._dist.items():
            extended = outcome + (fn(outcome),)
            probs[extended] = probs.get(extended, 0.0) + p
        names = None
        if self._names is not None:
            if name is None:
                raise ValueError("named joint distributions require a name "
                                 "for the new component")
            names = self._names + (name,)
        return JointDistribution(probs, names=names, normalize=True)

    def __repr__(self) -> str:
        label = f" names={self._names!r}" if self._names else ""
        return (
            f"JointDistribution(arity={self._arity}, "
            f"support={self._support_size()}{label})"
        )
