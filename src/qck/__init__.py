"""qck: exact computer algebra for quantized coordinate rings in type A.

Subpackages compute images of generators and quantum minors in tensor
quantum tori via wiring diagrams, structural invariants of the localized
algebras attached to signed double words, congruence normal forms of the
associated integer matrices, and machine-checkable pivot-element
certificates.
"""

# no submodule is imported here: `import qck` stays cheap, `python -m qck.cli`
# runs cli.py once, and `from qck import wiring` imports wiring and what it uses
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


class CrossCheckFailed(RuntimeError):  # here, so qtorus raises it without intlinalg
    """Internal consistency failure between two independent computations."""
