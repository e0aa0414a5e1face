"""Bruhat intervals and the generalized lifting property.

Classical lifting moves an interval [u, v] down by a simple reflection that
is a descent of v.  Generalized lifting works at any inversion-minimal
transposition t, which need not be simple: it simultaneously lifts the
bottom (u < ut <= v) and lowers the top (u <= vt < v).
"""

from bruhatpoly.intervals import (
    generalized_lift,
    interval,
    inversion_minimal_transpositions,
)
from bruhatpoly.perms import descents, format_perm, parse_perm

u, v = parse_perm("2143"), parse_perm("3241")
I = interval(u, v)

print(f"interval [{format_perm(u)}, {format_perm(v)}]")
print(f"  size {len(I)}, rank {I.rank}")
print(f"  elements: {', '.join(format_perm(z) for z in I.order)}")
print()

print(f"right descents: u -> {sorted(descents(u))}, v -> {sorted(descents(v))}")
ts = inversion_minimal_transpositions(u, v)
print(f"inversion-minimal transpositions: {', '.join(map(str, ts))}")
print("here the only inversion-minimal t is not a simple reflection.")
t, ut, vt = generalized_lift(u, v)
print(f"generalized lift at t={t}:")
print(f"  u={format_perm(u)}  <  ut={format_perm(ut)}  <=  v  (bottom lifted)")
print(f"  u  <=  vt={format_perm(vt)}  <  v={format_perm(v)}  (top lowered)")
