"""Test-session setup: the composed reference ops.

Importing `composed` sets `Tensor`'s arithmetic, reductions and
elementwise ops, which the installed package does not offer; the tests'
reference chains are built from them.
"""

import composed  # noqa: F401
