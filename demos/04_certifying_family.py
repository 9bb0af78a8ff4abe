"""Rebuilding a fuzzy order as the minimum of finitely many linear ones.

Every fuzzy order equals the pointwise infimum of its linear extensions.
A small certifying family suffices to realize the infimum:

  * for each incomparable pair, two extensions orienting it both ways
    (their minimum restores the double zero);
  * for each positive grade, one clamp extension keeping it exact
    (so the minimum cannot overshoot it).

verify_intersection folds the minimum and compares bit-exactly.
"""

from pathlib import Path

from fuzzorder import (
    certifying_family,
    load_matrix,
    pointwise_inf,
    verify_intersection,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

r, _ = load_matrix(FIXTURES / "order7.csv")

print("=" * 64)
print("Build the family and verify the reconstruction")
print("=" * 64)
family = certifying_family(r)
print(f"distinct members: {len(family)}")
print(f"certificates carried: {family.certificate_count}")
for member in family.members:
    print("  " + ", ".join(member.tags))
print()
verdict = verify_intersection(r, family)
print(f"pointwise infimum equals the input: {verdict.passed}")
print()

print("=" * 64)
print("Why the clamp members are necessary")
print("=" * 64)
target = r.value("x1", "x4")
reduced = [m for m in family.members if m.relation.value("x1", "x4") != target]
print(f"drop every member whose grade at (x1,x4) is exactly {target:g}")
print(f"members left: {len(reduced)}")
lowest = min(m.relation.value("x1", "x4") for m in reduced)
print(f"smallest remaining grade at (x1,x4): {lowest:g} > {target:g}")
verdict = verify_intersection(r, reduced)
print(f"reconstruction still exact? {verdict.passed}")
for (x, y), inf, expected in verdict.witnesses:
    print(f"  mismatch at ({x},{y}): infimum {inf:g}, input {expected:g}")
print()
print("Without a member pinning (x1,x4) at 0.55, the infimum lands at the")
print("next-lowest grade any extension attains there, and the original")
print("order is no longer recovered.")
print()

print("=" * 64)
print("The single-member 'family' fails immediately")
print("=" * 64)
linear, _ = load_matrix(FIXTURES / "order7_linear.csv")
verdict = verify_intersection(r, [linear])
print(f"one linear extension alone: {verdict.passed}, "
      f"{len(verdict.witnesses)} mismatching entries")
print(f"infimum of the full family, spot check (x1,x2): "
      f"{pointwise_inf(family.relations()).value('x1', 'x2'):g} (input 0)")
