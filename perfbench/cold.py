"""One cold set-up in a fresh interpreter; prints its phase timings as JSON.

    python3 perfbench/cold.py <workload>

run.py starts this several times per run and reports the median as setup_s.
"""

import json
import sys

from workloads import WORKLOADS, prepare

if __name__ == "__main__":
    print(json.dumps(prepare(WORKLOADS[sys.argv[1]]).timings))
