#!/bin/sh
# Fixture smoke: every colim subcommand on fixtures/ through the CLI
# (validate of a clean and an invalid diagram, verify, map, search, the
# queries equal, cone and divisible, and invariants), the whole output of
# `search fib fib` against its golden file, whose half-levels solve 2x2
# invertible systems from their adjugates, a cone probe at
# horizon 10^6 whose walk turns nonpositive at stage 2 and so stops at
# stage 4 (a walk to the horizon would take minutes), a diagram and two
# certificates refused for a faulty matrix entry or row, reading a file
# behind a UTF-8 byte-order mark or not in UTF-8, and a cold
# `import colim.cli` that loads none of dataclasses, inspect, typing or
# pathlib, with the interpreter in $PYTHON (default python3).  It needs
# no test dependency.  Run it from the root of a checkout:
#   PYTHON=python3.13 sh .github/smoke.sh
set -eu
py=${PYTHON:-python3}
F=fixtures
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

check() {  # check EXIT-CODE EXPECTED-LINE COLIM-ARGS...; the line may be on stdout or stderr
    code=$1 want=$2
    shift 2
    got=0
    out=$(PYTHONPATH=src "$py" -m colim.cli "$@" 2>&1) || got=$?
    if [ "$got" != "$code" ] || ! printf '%s\n' "$out" | grep -qxF "$want"; then
        printf 'colim %s: exit %s, expected %s with the line "%s"; output:\n%s\n' \
            "$*" "$got" "$code" "$want" "$out" >&2
        exit 1
    fi
}

check 0 "status: accepted" verify $F/x2.diag $F/x4.diag $F/x2_x4.cert
check 0 "status: accepted" verify $F/fib.diag $F/fib.diag $F/fib_self.cert
check 0 "image: 51:2" map $F/x2.diag $F/x4.diag $F/x2_x4.cert --element 100:1
check 0 "image: 201:4" map $F/x2.diag $F/x4.diag $F/x2_x4.cert --element 100:1 --backward
check 0 "status: found" search $F/x2.diag $F/x4.diag
check 3 "status: exhausted" search $F/x2.diag $F/x3.diag
golden=tests/golden/search_fib_fib.out
PYTHONPATH=src "$py" -m colim.cli search $F/fib.diag $F/fib.diag --depth 2 --bound 2 --horizon 8 > "$T/fib.out" \
    || { echo "colim search fib fib: exit $?, expected 0" >&2; exit 1; }
if ! cmp -s "$T/fib.out" $golden; then
    printf 'colim search fib fib: output differs from %s:\n' $golden >&2
    diff -u $golden "$T/fib.out" >&2 || :
    exit 1
fi
check 0 "evidence: CONCLUSIVE supernatural invariants inequivalent: 2^inf vs 3^inf" \
    invariants $F/x2.diag $F/x3.diag
check 1 "status: invalid" validate $F/bad_period.diag
check 2 "error: $F/bad_float.diag: non-integer entry at transitions[0][0][0]" validate $F/bad_float.diag
printf '{"i_indices": [1, 2], "k_indices": [1, 2], "f_mats": [[[1]], [[1]]], "g_mats": [[[true]]]}' > "$T/bad.cert"
check 2 "error: $T/bad.cert: expected an integer at g_mats[0][0][0]" verify $F/x2.diag $F/x4.diag "$T/bad.cert"
printf '{"i_indices": [1, 2], "k_indices": [1, 2], "f_mats": [[[1]], [[1], [2, 3]]], "g_mats": [[[2]]]}' > "$T/bad.cert"
check 2 "error: $T/bad.cert: ragged matrix rows at f_mats[1][1]" verify $F/x2.diag $F/x4.diag "$T/bad.cert"
check 0 "witness: 2" equal $F/x2.diag --e1 1:1 --e2 2:2
check 0 "witness: 2" cone $F/fib.diag --element 1:1,-1
check 0 "answer: unknown" cone $F/fib.diag --element 1:-1,1 --horizon 1000000
check 0 "witness: 3" divisible $F/x2.diag --element 1:1 --m 4
{ printf '\357\273\277'; cat $F/x2.diag; } > "$T/bom.diag"
check 0 "status: clean" validate "$T/bom.diag"
printf '\377\376{}' > "$T/bad.diag"
check 2 "error: cannot read $T/bad.diag: not UTF-8 (invalid start byte at offset 0)" validate "$T/bad.diag"
PYTHONPATH=src "$py" -S -c '
import sys, colim.cli
found = ", ".join(m for m in ("dataclasses", "inspect", "typing", "pathlib") if m in sys.modules)
if found:
    sys.exit("import colim.cli loads " + found)'
echo "smoke ok on $("$py" --version)"
