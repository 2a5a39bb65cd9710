"""One set-up of a benchmark workload, in a fresh interpreter.

    python3 perfbench/setup_child.py <checkout root> <config dir>

Times the first `import holderlab`, parsing every config file in the
directory and `build_map` for every map they name, and prints the seconds
taken.  Rejected configs are parsed as far as they go, as `holderlab run`
would.
"""

import json
import os
import sys
import time


def main() -> None:
    root, config_dir = sys.argv[1], sys.argv[2]
    src = os.path.join(root, "src")
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import holderlab
    from holderlab.catalog import build_map
    from holderlab.errors import HolderLabError

    if not os.path.abspath(holderlab.__file__).startswith(src + os.sep):
        sys.exit(f"imported holderlab from {holderlab.__file__}, not {src}")
    for fname in sorted(os.listdir(config_dir)):
        with open(os.path.join(config_dir, fname), encoding="utf-8") as fh:
            text = fh.read()
        try:
            obj = json.loads(text)
        except ValueError:
            continue
        try:
            build_map(obj["map"]["name"], obj["map"]["params"],
                      breadth=obj.get("breadth"))
        except HolderLabError:
            pass
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
