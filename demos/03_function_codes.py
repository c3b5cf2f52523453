"""Codes from functions: duals, hulls and weight formulas.

Builds the code {(Tr(a f(x) + b x))_x} for f(x) = x^2 over GF(9),
computes its dual twice (nullspace and the span-intersection closed
form), its hull twice (intersection and kernel map), and compares the
closed-form bent weights against exhaustive counting.
"""

from walshcodes.algebra import make_field
from walshcodes.codes import dual, hull, min_distance, weight_distribution
from walshcodes.conditions import (
    bent_codeword_weight,
    dual_character_first,
    dual_membership_first,
    weight_via_walsh_sum,
)
from walshcodes.constructions import (
    dual_first_closed_form,
    first_generic,
    hull_first_kernel,
)
from walshcodes.functions import ParyFunction

f9 = make_field(3, 2)
f = ParyFunction.from_callable(f9, lambda x: x ** 2, f9.m)

code = first_generic(f)
print(f"C(x^2) over GF(9): [{code.n}, {code.k}, {min_distance(code)}]")
print("weights:", weight_distribution(code).counts)

nullspace_dual = dual(code)
closed = dual_first_closed_form(f)
print(f"\ndual: [{nullspace_dual.n}, {nullspace_dual.k}]")
print("closed form == nullspace dual:", closed == nullspace_dual)

h = hull(code)
print(f"\nhull: dimension {h.k}")
print("kernel-map hull == intersection hull:", hull_first_kernel(f) == h)

print("\n--- weights from the Walsh sum ---")
for (a, b) in ((f9.zero, f9.one), (f9.one, f9.zero), (f9.one, f9.element([0, 1]))):
    wt = weight_via_walsh_sum(f, a, b)
    print(f"  wt(a={list(a.coeffs)}, b={list(b.coeffs)}) = {wt}")

print("\n--- closed-form bent weights vs exhaustive, all prime alpha ---")
mismatch = 0
for ai in range(3):
    alpha = f9.scalar(ai)
    for beta in f9.elements:
        brute = sum(
            1
            for x in f9.elements[1:]
            if (f9.trace_bilinear(alpha, f(x)) - f9.trace_bilinear(beta, x)) % 3
        )
        if bent_codeword_weight(f, alpha, beta) != brute:
            mismatch += 1
print("mismatches:", mismatch)

print("\n--- a necessary condition for dual membership ---")
some_dual_word = next(iter(nullspace_dual.codewords()))
verdict = dual_membership_first(f, some_dual_word, "delta-value")
print("zero word verdict:", verdict.holds, "| conjugation-fixed:", verdict.imaginary_zero)

ch = dual_character_first(f, "delta-value")
print("character parity check coefficients:", list(ch.kernel_hyperplane()))
