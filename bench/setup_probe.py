"""Time one set-up in a fresh interpreter: import fusionkit and build a
workload's groups.  Prints the seconds taken, calibrated for the host's
speed (see speed.py).  ``run.py`` starts it with the repository's ``src`` on
``PYTHONPATH``.
"""

import sys

from speed import SpeedMeter

meter = SpeedMeter()
meter.start()
start = meter.now()
import workloads  # noqa: E402  (imports fusionkit, which is part of what is timed)

workloads.build_groups(sys.argv[1])
end = meter.now()
meter.stop()
print(meter.seconds(start, end))
