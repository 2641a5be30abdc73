"""Construct explicit witness simplices for realizable candidates.

With coordinate sum V <= 3 the box group of a witness is trivial or cyclic
of prime order, so every YES candidate is realized by one Hermite normal form
simplex conv(0, e_1, ..., e_(d-1), (b, V)) read off that group.  The
delta-vector is recomputed from the witness as an independent check.
"""

from ehrhart import Verdict, delta_from_box, enumerate_candidates, realize

candidates = [
    (1, 0, 1, 0),                      # volume 2: Z/2
    (1, 0, 2, 0, 0),                   # volume 3, one entry equal to 2
    (1, 1, 1, 0, 0, 0),                # volume 3, ones at 1 and 2
    (1, 0, 1, 0, 1, 0),                # evenly spaced ones
    (1, 0, 0, 1, 0, 1, 0, 0, 0, 0),    # two-ones candidate in dimension 9
]

for cand in candidates:
    simplex, plan = realize(cand)
    recomputed = tuple(delta_from_box(simplex).entries)
    print(f"{cand} -> {plan.describe()}")
    print(f"  witness vertices: {[list(v) for v in simplex.vertices]}")
    print(f"  recomputed delta: {recomputed}  match={recomputed == cand}")

# Exhaustive sweep: realize everything the classifier accepts in dim 3..8.
total = 0
for d in range(3, 9):
    for cand, decision in enumerate_candidates(d, 3):
        if decision.verdict is Verdict.YES:
            simplex, _ = realize(cand)  # realize recomputes delta and checks it
            total += 1
print(f"\nrealized and verified {total} candidates across dimensions 3..8")
