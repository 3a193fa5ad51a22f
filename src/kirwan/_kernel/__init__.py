"""The reduction kernel: exact integer reduction on packed exponent vectors.

One pure-Python implementation (`pure`) supplies the kernel functions the
Groebner engine calls; see its module docstring for the packed term layout.
KERNEL_NAME names it for diagnostics and benchmarks.
"""

from .pure import key_of, kp_from_terms, kp_make, kp_normal_form, kp_spoly

KERNEL_NAME = "pure"
