"""Reference set-up: a fixed job that measures the machine, not the library.

    python3 perfbench/reference.py

Like a set-up (``gen.py``), it runs in a fresh process: it imports a fixed
list of pure-Python standard-library modules and then generates, hashes
and serialises seeded random rows.  It never touches ``dalg``, so no
library change can change its time.  run.py times it right before every
set-up and reports ``setup_s`` at the speed at which it takes exactly
``REF_SETUP_S``.  Never change it: results stay comparable only while it
stays the same.

Prints one JSON line: ``reference_s``, the time of the job in-process.
"""

from __future__ import annotations

import time

t0 = time.perf_counter()

import _pydecimal  # noqa: E402,F401
import argparse  # noqa: E402,F401
import ast  # noqa: E402,F401
import calendar  # noqa: E402,F401
import configparser  # noqa: E402,F401
import dataclasses  # noqa: E402,F401
import difflib  # noqa: E402,F401
import email.message  # noqa: E402,F401
import fractions  # noqa: E402,F401
import hashlib  # noqa: E402
import inspect  # noqa: E402,F401
import json  # noqa: E402
import optparse  # noqa: E402,F401
import pickletools  # noqa: E402,F401
import pydoc  # noqa: E402,F401
import random  # noqa: E402
import statistics  # noqa: E402,F401
import tarfile  # noqa: E402,F401
import textwrap  # noqa: E402,F401
import unittest  # noqa: E402,F401
import zipfile  # noqa: E402,F401

rng = random.Random(0)
rows = [[rng.randrange(256) for _ in range(8)] for _ in range(20000)]
index = {(r[0], r[1], r[2]): r for r in rows}
data = json.dumps(rows).encode()
hashlib.sha256(data).hexdigest()
print(json.dumps({"reference_s": time.perf_counter() - t0}))
