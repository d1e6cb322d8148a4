"""Exact discrete information theory (the paper's Section 3 toolkit).

Public surface:

* :class:`DiscreteDistribution`, :class:`JointDistribution` — exact finite
  distributions with marginalization / conditioning.
* :func:`entropy`, :func:`binary_entropy`, :func:`conditional_entropy`,
  :func:`mutual_information`, :func:`conditional_mutual_information` —
  Definitions 1–3.
* :func:`kl_divergence`, :func:`log_ratio` — Definition 4.
* Sample-based estimators in :mod:`repro.information.estimation`.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "distribution": ("DiscreteDistribution", "JointDistribution"),
    "divergence": ("kl_divergence", "log_ratio"),
    "entropy": (
        "binary_entropy",
        "conditional_entropy",
        "conditional_mutual_information",
        "entropy",
        "mutual_information",
    ),
    "estimation": (
        "bootstrap_interval",
        "bootstrap_mutual_information_interval",
        "empirical_distribution",
        "miller_madow_entropy",
        "plugin_entropy",
        "plugin_mutual_information",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

# The one public name that is also a submodule's name: bind it now, over
# the module object the import sets, so it reads as the function even
# after ``import repro.information.entropy``.
from .entropy import entropy  # noqa: E402

__all__ = [
    "DiscreteDistribution",
    "JointDistribution",
    "entropy",
    "binary_entropy",
    "conditional_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "kl_divergence",
    "log_ratio",
    "empirical_distribution",
    "plugin_entropy",
    "miller_madow_entropy",
    "plugin_mutual_information",
    "bootstrap_interval",
    "bootstrap_mutual_information_interval",
]
