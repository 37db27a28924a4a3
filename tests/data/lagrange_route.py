"""Run the Lagrange route end to end and print whether scipy was loaded.

The test suite runs this script with the sources on PYTHONPATH; CI runs it
where dbmlab is installed without extras, so scipy is not even available.
"""

import sys

import dbmlab

ev = dbmlab.KernelEvaluator([-1.0, 0.2, 0.9], 0.5)
dbmlab.kernel_lagrange(ev, 0.3, -0.2)
dbmlab.lagrange_p_hat(ev, 1, 0.3)
dbmlab.biorthogonality_check(ev)
dbmlab.gap_probability(dbmlab.GapProblem(ev, (-0.5, 0.5)))
# a repeated point takes the confluent divided differences
dbmlab.kernel_lagrange(dbmlab.KernelEvaluator([0.5, 0.5, 0.5, 1.0], 0.4), 0.6, 0.2)
print(any(m.split(".")[0] == "scipy" for m in sys.modules))
