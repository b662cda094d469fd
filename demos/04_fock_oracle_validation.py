"""Cross-checking the closed-form receiver statistics against brute force.

Every command reports photon-count statistics from one closed form,
derived by Gaussian moment factorization; it is only as trustworthy as
that factorization.  The number-basis oracle rebuilds the same receiver
state explicitly -- Schmidt weights, the amplified idler through the
squeezer's Heisenberg relation, a traced-out thermal ancilla, exact
beam-splitter sectors -- and evaluates the count moments exactly as
sums over photon-number pairs.  At small occupation numbers the two
routes must agree; the closed form is uniform in the parameters, so this
validates it everywhere.
"""

from qillum import (
    GainSpec,
    ScenarioParams,
    per_mode_count_stats,
    receiver_count_moments,
)

DIM = 30

print(f"{'n_s':>5} {'n_b':>5} {'kappa':>6} {'G':>4}  "
      f"{'mean (gauss)':>13} {'mean (fock)':>13} {'var (gauss)':>12} {'var (fock)':>12} {'worst rel':>10}")
for n_s in (0.1, 0.4):
    for n_b, kappa, g in ((0.25, 0.1, 1.0), (0.5, 0.1, 2.0), (1.0, 0.4, 1.5)):
        p = ScenarioParams(n_s=n_s, n_b=n_b, kappa=kappa, gain=GainSpec(g), modes=1)
        _, gauss = per_mode_count_stats(p)
        fock, leakage = receiver_count_moments(p, DIM, target_present=True)
        worst = max(
            abs(gauss.mean - fock.mean) / max(abs(gauss.mean), 1.0),
            abs(gauss.variance - fock.variance) / gauss.variance,
        )
        print(f"{n_s:5.2f} {n_b:5.2f} {kappa:6.2f} {g:4.1f}  "
              f"{gauss.mean:13.8f} {fock.mean:13.8f} "
              f"{gauss.variance:12.8f} {fock.variance:12.8f} {worst:10.2e}")

print()
print(f"truncation dimension {DIM} per mode; same check from the shell:")
print("  qillum validate --ns 0.1 --nb 0.5 --kappa 0.1 --gain 2 --dim 30")
