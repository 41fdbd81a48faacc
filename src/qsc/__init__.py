"""qsc: ground-state preparation by simulated cooling, as a numerical lab.

Modules:
  linalg      dense complex linear algebra value types and operations
  models      Hamiltonian / bath / fiducial construction
  levelshift  resolvents, self-energy, detuning solves
  cooling     the measurement-driven cooling pipelines
  bounds      executable perturbation-bound checkers
  experiments + cli   reproducible sweeps with CSV/JSON output
"""

__version__ = "0.1.0"
