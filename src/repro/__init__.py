"""repro — a reproduction of *On Information Complexity in the Broadcast
Model* (Braverman & Oshman, PODC 2015).

The library implements the paper's entire stack from scratch:

* :mod:`repro.information` — exact discrete information theory
  (entropy, mutual information, KL divergence; Definitions 1–4, Eq. 1).
* :mod:`repro.coding` — bit-level codes used by the protocols (Elias
  codes, combinadic subset ranking).
* :mod:`repro.core` — the blackboard execution model, a concrete runner
  with exact bit accounting, and an exact protocol-tree analyzer for
  information costs and errors (Section 3, Definitions 5–6).
* :mod:`repro.protocols` — the disjointness protocols (naive, trivial,
  and the optimal :math:`O(n \\log k + k)` protocol of Section 5) and the
  AND protocols of Section 6.
* :mod:`repro.lowerbounds` — the Section 4 machinery: the hard
  distribution, the Lemma 3 product decomposition, Lemma 4 posteriors,
  the Lemma 5 good-transcript analysis, the Lemma 6 Ω(k) argument, and
  the Lemma 1 direct sum.
* :mod:`repro.compression` — the Lemma 7 rejection-sampling message
  simulation, one-shot protocol compression, amortized n-fold compression
  (Theorem 3), and the information/communication gap instance.
* :mod:`repro.obs` — structured tracing and runtime metrics for all of
  the above (span/event tracers, labeled counters and log-scale
  histograms, fixed-width metric reports; see docs/observability.md).
* :mod:`repro.perf` — the performance layer: a deterministic
  process-pool executor for experiment grids (``--workers`` on the
  experiment CLI; see docs/performance.md).

Quick start::

    from repro.core import run_protocol, set_to_mask
    from repro.protocols import OptimalDisjointnessProtocol

    n, k = 128, 8
    protocol = OptimalDisjointnessProtocol(n=n, k=k)
    inputs = [set_to_mask(range(i, n, k), n) for i in range(k)]
    run = run_protocol(protocol, inputs)
    print(run.output, run.bits_communicated)
"""

__version__ = "1.0.0"

__all__ = [
    "information",
    "coding",
    "core",
    "protocols",
    "lowerbounds",
    "compression",
    "streaming",
    "experiments",
    "obs",
    "perf",
]
