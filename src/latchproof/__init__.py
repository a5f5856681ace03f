"""latchproof: a static verifier for CountDownLatch programs with
concurrent abstract predicates, plus an exhaustive-interleaving oracle.
Each name is imported from its submodule (`latchproof.verifier`,
`latchproof.oracle`, ...); the package itself loads neither of those two."""

__version__ = "0.1.0"

from .lemmas import verify_lemma_table

__all__ = ["verify_lemma_table", "__version__"]
