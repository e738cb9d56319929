"""Set-up probe: a fresh process that pays what every CLI run pays first.

With ``PYTHONPATH`` pointing at the ``src`` directory under test::

    python3 bench/probe.py CONFIG.json [CONFIG.json ...]
    python3 bench/probe.py --stamp STAMP.json COMMAND --config CONFIG.json ...

Both forms import ``probcone.cli`` and load and validate configs with the
CLI's own ``load_config``. The first validates every config given, prints
one JSON record and exits. The second is the ``probcone`` CLI itself: it
runs ``probcone.cli.main`` on the arguments after ``STAMP.json``, as the
installed ``probcone`` script does, and writes the record to ``STAMP.json``
once the config has passed validation.

The record holds the monotonic clock reading when set-up was done
(comparable with the parent's on Linux), the import and validation times,
the number of modules the import loaded, and where ``probcone`` came from.
"""

import json
import sys
import time


def main(argv):
    before = len(sys.modules)
    start = time.monotonic()
    import probcone.cli as cli

    imported = time.monotonic()

    def record():
        ready = time.monotonic()
        return json.dumps(
            {
                "ready": ready,
                "import_s": imported - start,
                "validate_s": ready - imported,
                "modules_loaded": len(sys.modules) - before,
                "probcone_file": cli.__file__,
            }
        )

    if argv[:1] == ["--stamp"]:
        stamp_path, cli_argv = argv[1], argv[2:]
        load_config = cli.load_config

        def stamped_load_config(path):
            config = load_config(path)
            with open(stamp_path, "w") as stamp:
                stamp.write(record())
            return config

        cli.load_config = stamped_load_config
        return cli.main(cli_argv)

    for path in argv:
        cli.load_config(path)
    print(record())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
