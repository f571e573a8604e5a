"""Time fieldreg's set-up in a fresh interpreter and print it in seconds.

Set-up is what a user pays before the first frame: importing the package
(NumPy included) and loading the field template and the covariance bank.

    python3 bench/probe.py SRC_DIR TEMPLATE_JSON BANK_JSON|-

With `-` the built-in reference bank is used, as `fieldreg filter` does
without `--bank`.
"""

import sys
import time


def main():
    src, template_path, bank_path = sys.argv[1:4]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fieldreg.cli  # noqa: F401  (the CLI imports every module)
    from fieldreg import default_covariance_bank, read_bank, read_template

    read_template(template_path)
    if bank_path == "-":
        default_covariance_bank()
    else:
        read_bank(bank_path)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
