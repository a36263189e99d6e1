"""qck: exact computer algebra for quantized coordinate rings in type A.

Subpackages compute images of generators and quantum minors in tensor
quantum tori via wiring diagrams, structural invariants of the localized
algebras attached to signed double words, congruence normal forms of the
associated integer matrices, and machine-checkable pivot-element
certificates.
"""

# `cli` is left out: `python -m qck.cli` would otherwise find it imported
# before runpy runs it, warn, and execute it twice; `from qck import cli`
# still works
from . import (  # noqa: F401
    appendix_congruence,
    intlinalg,
    pivots,
    qtorus,
    slq2_tensor,
    strings,
    weyl,
    wiring,
)

__all__ = [
    "weyl",
    "intlinalg",
    "qtorus",
    "strings",
    "wiring",
    "pivots",
    "slq2_tensor",
    "appendix_congruence",
    "cli",
]

__version__ = "0.1.0"
