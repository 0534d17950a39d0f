"""The theta invariant: stable Tor-length differences and their additivity.

Over the quadric threefold with M = R/(x,z) and N = R/(x,y) the Tor lengths
alternate 1, 0, 1, 0, ... so theta(M, N) = -1: the classical witness that
one vanishing Tor does not force the later ones to vanish when the class of
N in the reduced Grothendieck group is nonzero.
"""

import random

from hwprobe import (
    define_ring,
    free_module,
    parse_polynomial,
    quotient_module,
    rigidity_probe,
    theta,
    theta_additivity_check,
    tor_length,
    verify_short_exact,
)
from hwprobe.theta import random_short_exact_sequence

ring = define_ring(["x", "y", "z", "w"], [1, 1, 1, 1], 101,
                   ["x*w - y*z"], domain=True)
amb = ring.ambient
m = quotient_module(ring, [parse_polynomial(amb, "x"),
                           parse_polynomial(amb, "z")])
n = quotient_module(ring, [parse_polynomial(amb, "x"),
                           parse_polynomial(amb, "y")])

print("Tor lengths of (R/(x,z), R/(x,y)) in degrees 1..8:",
      [tor_length(m, n, i) for i in range(1, 9)])

res = theta(m, n)
print("theta:", res.value)
print("  stable index:", res.stable_index,
      " syzygy replacement index:", res.replacement_index)
print("  lengths used:", dict(sorted(res.lengths.items())))
print("  two-periodicity certified via:", res.periodicity["via"])
print("theta against the ring itself:",
      theta(m, free_module(ring, (0,))).value)
print("theta against N + N:", theta(m, n.direct_sum(n)).value)

print()
print("additivity on random short exact sequences 0 -> X -> N -> N/X -> 0:")
rng = random.Random(5)
for trial in range(3):
    f, g = random_short_exact_sequence(n, rng)
    ok, reason = verify_short_exact(f, g)
    out = theta_additivity_check(m, f, g)
    print(f"  trial {trial}: exact={ok}  "
          f"theta(X,Y,Z) = ({out['theta_X']}, {out['theta_Y']}, "
          f"{out['theta_Z']})  additive={out['additive']}")

print()
probe = rigidity_probe(m, n, window=8)
print("rigidity probe: gap patterns", probe["gaps"])
print("  flagged as an anomaly:", probe["refutation_grade_anomaly"],
      " (the rigidity hypotheses fail in dimension three, as they must)")
