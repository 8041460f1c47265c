import os
import sys

# The benchmark's modules import each other as top-level modules, the
# way ``python3 perfbench/run.py`` sees them.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
