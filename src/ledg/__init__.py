"""Meta-learned message-passing GNNs for discrete dynamic graphs.

The library trains a graph encoder whose node embeddings are split, by a
learned sigmoid gate, into a time-varying part and a graph-intrinsic part.
For each target snapshot, a short inner loop adapts the encoder and gate on
a self-supervised time-regression signal over the preceding window; an
outer loop meta-trains every parameter through those adaptation steps
(exactly, or with the cheaper first-order approximation). Evaluation
re-runs the same adaptation on unseen snapshots before predicting.

The modules are the API: ``from ledg import meta`` or
``from ledg.model import ModelSpec``; this package re-exports nothing.
"""

__version__ = "0.1.0"
