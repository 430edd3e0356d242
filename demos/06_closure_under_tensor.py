#!/usr/bin/env python3
"""Every implemented criterion is closed under tensor products.

Samples pairs of passing states (random separable mixtures and filtered
random states), re-runs each criterion on the regrouped tensor product, and
reports margins: zero violations expected. The symmetric-extension case is
verified constructively by tensoring explicit extension witnesses.
"""

from sepkit import closure_sweep, random_separable, symext_closure_check
from sepkit.criteria import ONE_SHOT_TESTS


def main():
    print("closure sweeps, 60 passing pairs per criterion at 2x2 (x) 2x2:")
    print(f"{'criterion':<14} {'violations':>10} {'min margin':>12} {'sub-asserts':>12}")
    for idx, crit in enumerate(ONE_SHOT_TESTS):
        rep = closure_sweep(crit, 60, (300 + idx))
        print(
            f"{crit:<14} {rep.violations:>10} {rep.min_margin:>+12.2e}"
            f" {'ok' if rep.sub_assertion_failures == 0 else 'FAILED':>12}"
        )

    print("\nconstructive symmetric-extension closure on 20 separable pairs:")
    worst = 0.0
    for seed in range(20):
        _, ens_a = random_separable((2, 2), 1 + seed % 4, (400, seed))
        _, ens_b = random_separable((2, 2), 1 + (seed + 2) % 4, (500, seed))
        res = symext_closure_check(ens_a, ens_b, 2)
        assert res["ok"]
        worst = min(worst, res["psd_margin"])
    print(f"  all pairs compose; worst witness PSD margin {worst:+.2e}")
    print("\nTensor-product closure is exactly why these tests can never, on")
    print("their own, bound how far a passing state is from the separable set.")


if __name__ == "__main__":
    main()
