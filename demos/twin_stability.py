"""Certified stability gap between a run and its perturbed twin.

Runs the same scenario twice in lockstep, the twin starting from a
mass-neutral sinusoidal perturbation, and prints the Gronwall certificate,
which takes D from the two runs, comparing the regularized relative
entropy against its integrated envelope. The default shift of 0.05 sits far above the admissibility
threshold of the stability constants, so the certificate is reported
with that caveat.
"""

from dataclasses import replace

from msdiff.entropy import gronwall_certificate
from msdiff.flux import DiffusionMatrix
from msdiff.grid import PeriodicGrid
from msdiff.sim import Perturbation, Scenario, run_lockstep


def main():
    D = DiffusionMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    sc = Scenario(n=3, D=D, grid=PeriodicGrid((32,)), t_final=0.002,
                  delta=0.05, amplitude=0.2, cadence=4)
    pert = Perturbation(amplitude=1e-3, mode=2)
    base, twin = run_lockstep([sc, replace(sc, perturbation=pert)])
    cert = gronwall_certificate(base, twin, sc.delta)
    k, cols = cert.constants, cert.diagnostics
    gap, lhs, rhs = cols["regularized_entropy"], cols["gronwall_lhs"], cols["gronwall_rhs"]

    print(f"shift delta      : {k.delta}")
    print(f"admissible       : {k.admissible} (threshold {k.delta_max:.3e})")
    print(f"initial gap      : {gap[0]:.6e}")
    print(f"final gap        : {gap[-1]:.6e}")
    margin = float((rhs - lhs).min())
    print(f"master bound     : final lhs {lhs[-1]:.6e}"
          f" <= rhs {rhs[-1]:.6e},"
          f" worst margin {margin:.3e}"
          f" -> {'holds' if cert.holds_master else 'violated'}")
    print(f"log envelope     : {'holds' if cert.holds_envelope else 'violated'}")
    print(f"overall          : {'holds' if cert.holds else 'violated'}")
    print(f"constants        : c1={k.c1:.4g} c2={k.c2:.4g} c3={k.c3:.4g}"
          f" c4={k.c4:.4g} c5={k.c5:.4g}")


if __name__ == "__main__":
    main()
