"""Fresh-process set-up time: `import etcphd` plus loading the workload's documents.

Usage:
  python3 bench/setup_probe.py <checkout root>   (documents as JSON on stdin)
  python3 -S bench/setup_probe.py --reference

The first form parses the documents before the clock starts, so only the
package's import and `scenario_from_dict` are timed; the CPU reference kernel
runs three times right before and three times right after them.  The second
form times importing a fixed set of standard-library modules in an otherwise
empty interpreter: the speed of the import machinery itself, which the CPU
kernel does not follow.  Each form prints one JSON line.
"""

import importlib
import json
import os
import statistics
import sys
import time

# Pure-Python standard-library modules that an interpreter started with -S
# (no `site`, so no .pth imports) has not loaded.
REFERENCE_MODULES = (
    "xml.dom.minidom", "email.mime.multipart", "http.cookiejar", "csv", "difflib",
    "tarfile", "zipfile", "configparser", "plistlib", "ftplib",
)


def reference_import() -> dict:
    loaded = [name for name in REFERENCE_MODULES if name in sys.modules]
    if loaded:
        raise SystemExit(f"reference modules already loaded: {loaded}")
    start = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return {"import_reference_s": time.perf_counter() - start}


def package_setup(root: str) -> dict:
    docs = json.load(sys.stdin)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import reference

    before = [reference.run_once() for _ in range(3)]
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import etcphd

    imported = time.perf_counter()
    for doc in docs:
        etcphd.scenario_from_dict(doc)
    loaded = time.perf_counter()
    after = [reference.run_once() for _ in range(3)]
    return {
        "import_s": imported - start,
        "load_s": loaded - imported,
        "reference_s": statistics.median(before + after),
        "package": os.path.realpath(etcphd.__file__),
    }


def main() -> int:
    if sys.argv[1] == "--reference":
        print(json.dumps(reference_import()))
    else:
        print(json.dumps(package_setup(sys.argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
