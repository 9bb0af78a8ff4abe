"""Turning a partial fuzzy order into a linear one, pivot by pivot.

Each pivot picks an incomparable pair (a, b) and rebuilds the grid as

    r'(x, y) = max(r(x, y), min(r(x, a), r(b, y)))

which forces a fully above b while keeping all three axioms intact.  The
loop makes one pass over the incomparable pairs in row-major order and
pivots at each pair that is still incomparable when the pass reaches it,
because a pivot can settle later pairs for free.
"""

from pathlib import Path

from fuzzorder import count_incomparable_entries, linearize, load_matrix

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

r, _ = load_matrix(FIXTURES / "order7.csv")

print("=" * 64)
print("The 7-element sample: 4 incomparable pairs, m = 8 ordered entries")
print("=" * 64)
m = count_incomparable_entries(r)
print(f"m = {m}, so at most m/2 = {m // 2} pivots can ever be needed.")
print()

result = linearize(r)
print(f"pivots actually applied: k = {result.k}")
for step in result.trace:
    print(f"\npivot {step.step_index}: put {step.a.label} above {step.b.label}")
    for (x, y), old, new in step.entries_raised:
        print(f"  ({x},{y}) rises {old:g} -> {new:g}")

print()
print("Note the side effects: the first pivot makes (x2,x3) comparable by")
print("raising (x3,x2) to 0.15, and the second settles (x4,x7) by raising")
print("(x4,x7) to 0.25, so two pivots close all four incomparable pairs.")
print()

print("=" * 64)
print("The result is linear, still an order, and never lowers a grade")
print("=" * 64)
for label, row in zip(result.relation.labels, result.relation.tolists()):
    print(f"  {label}: {[f'{v:g}' for v in row]}")
print()
print("Every grade in the output already appeared in the input (or is 0/1):")
inputs = set(map(float, r.grid.flat))
outputs = set(map(float, result.relation.grid.flat))
print(f"  new values introduced: {sorted(outputs - inputs - {0.0, 1.0})}")
