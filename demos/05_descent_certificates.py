"""When the dual Newton step stops being a descent direction.

Each Newton step carries a certificate: the product of the metric with
the transposed dual Hessian must be symmetric positive definite for
the step to be guaranteed downhill.  On an asymmetrically regularized
projection problem started far from the solution, connections other
than the flat one routinely lose that certificate or produce singular
systems; the flat connection keeps it at every step.  This reruns that
probe and prints the failure counts.
"""

from dualnewton import spd_failure_probe

report = spd_failure_probe()

print("regularized projection, 20 wide random starts per connection\n")
print(f"{'alpha':>6s} {'failed runs':>12s} {'every step certified':>22s}")
for alpha, row in report.items():
    print(f"{alpha:+6.1f} {row['failures']:>9d}/{row['runs']:<2d} {str(row['all_spd']):>22s}")

print(
    "\nA failed run either ended with a singular Newton system or recorded "
    "a step whose certificate matrix was not positive definite.  The "
    "optimizer reports this state instead of silently following an ascent "
    "direction; rerunning with the flat connection avoids it."
)
