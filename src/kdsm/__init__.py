"""Uplift modeling toolkit: an interpretable tree teacher distilled into a
gradient-trained response model via within-leaf counterfactual matching,
plus two-model and transformed-outcome baselines and ranking metrics.

Import what you need from the submodules: `kdsm.data`, `kdsm.tree`,
`kdsm.student`, `kdsm.distill`, `kdsm.metrics`, `kdsm.cli`."""

__version__ = "0.1.0"
