import os
import sys

# the benchmark's modules import each other as top-level modules, the way
# run.py and worker.py see them when started as scripts
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
