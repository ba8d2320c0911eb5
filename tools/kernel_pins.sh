#!/bin/sh
# Which OpenBLAS kernels reproduce the pinned-bits tests (`-k reproduces`).
#
# The pins were recorded under OpenBLAS's AVX-512 kernel; kernels for other
# instruction sets accumulate GEMM sums in another order, so the trained bits
# follow the kernel. This runs the pinned tests with OPENBLAS_CORETYPE unset
# ("default") and set to each named kernel, for the test process only, and
# prints one line per kernel. Run it from anywhere:
#
#     sh tools/kernel_pins.sh
#
# It changes no pin and exits 0 whatever the tests report. Name only kernels
# the CPU can run.
cd "$(dirname "$0")/.." || exit 1
for kernel in "" Haswell Prescott SandyBridge; do
    summary=$(env -u OPENBLAS_CORETYPE ${kernel:+OPENBLAS_CORETYPE=$kernel} PYTHONPATH=src \
        python3 -m pytest -q -p no:cacheprovider -k reproduces tests 2>&1 | tail -n 1)
    case "$summary" in
        *failed* | *error*) verdict=fail ;;
        *passed*) verdict=pass ;;
        *) verdict=fail ;;
    esac
    echo "${kernel:-default}: $verdict ($summary)"
done
