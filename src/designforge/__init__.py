"""Numerical construction and certification of spherical n-designs on S^d.

Import from the submodules: `gegenbauer`, `kernel`, `solver`, `sphere`,
`verifier` and `cli`.
"""

__version__ = "0.1.0"
