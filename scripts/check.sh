#!/bin/sh
# Repo check: build, run the test suites, then smoke-test the static
# analyzers over the example MiniC inputs. Any unexpected exit fails.
#
#   scripts/check.sh
#
# The static smoke test asserts the documented verdicts: examples named
# unstable_*.c must produce detection-grade findings (exit 1), examples
# named stable_*.c must be clean (exit 0). Exit code 2 (parse/usage
# error) always fails.

set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

status=0
# Every JSON text the CLI prints must parse (python3 -m json.tool), raw
# input bytes above 0x7f included.  Python reads stdin as strict UTF-8,
# as a JSON reader must: by default it lets undecodable bytes through.
PYTHONIOENCODING=utf-8:strict
export PYTHONIOENCODING
# json_ok NAME TEXT: TEXT is one JSON value
json_ok() {
  if printf '%s\n' "$2" | python3 -m json.tool > /dev/null 2>&1; then
    echo "ok   $1 is valid JSON"
  else
    echo "FAIL $1 is not valid JSON: $(printf '%s\n' "$2" | head -c 200)"
    status=1
  fi
}
# stats_ok NAME OUTPUT MEMBERS: --stats printed one JSON line, OUTPUT's
# last, an object whose members are MEMBERS (comma-separated, in order)
stats_ok() {
  got_members=$(printf '%s\n' "$2" | tail -n 1 | python3 -c \
    'import json, sys; print(",".join(json.loads(sys.stdin.read())))' 2>/dev/null \
    || true)
  objects=$(printf '%s\n' "$2" | grep -c '^{' || true)
  if [ "$got_members" != "$3" ] || [ "$objects" -ne 1 ]; then
    echo "FAIL $1: want one {$3} line, got $objects object line(s), members {$got_members}"
    status=1
  else
    echo "ok   $1 prints one stats line {$3}"
  fi
}
# stat_at OUTPUT PATH: the member at the dotted PATH (session.units.hits)
# of the stats object on OUTPUT's last line; empty when it has none
stat_at() {
  printf '%s\n' "$1" | tail -n 1 | python3 -c '
import json, sys
v = json.loads(sys.stdin.read())
for k in sys.argv[1].split("."):
    v = v[k]
print(v)' "$2" 2>/dev/null || true
}

echo "== static smoke test over examples/*.c"
for f in examples/*.c; do
  [ -e "$f" ] || continue
  case "$(basename "$f")" in
    stable_*) want=0 ;;
    *) want=1 ;;
  esac
  set +e
  dune exec bin/compdiff_cli.exe -- static "$f" > /dev/null 2>&1
  got=$?
  set -e
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $f: compdiff static exited $got, expected $want"
    status=1
  else
    echo "ok   $f (exit $got)"
  fi
done

echo "== linked-vs-reference executor smoke test"
# The linked-image executor (the default everywhere) must be
# byte-identical to the tree-walking reference interpreter on every
# example, across all 10 profiles, including arena reuse.
for f in examples/*.c; do
  [ -e "$f" ] || continue
  set +e
  dune exec bin/compdiff_cli.exe -- vmcheck "$f"
  got=$?
  set -e
  if [ "$got" -ne 0 ]; then
    echo "FAIL $f: compdiff vmcheck exited $got"
    status=1
  fi
done

echo "== parallel-vs-sequential oracle smoke test"
# The pooled+deduped oracle must produce byte-identical diff reports and
# exit codes to the sequential one on every example.
for f in examples/*.c; do
  [ -e "$f" ] || continue
  set +e
  out1=$(COMPDIFF_JOBS=1 dune exec bin/compdiff_cli.exe -- diff "$f" 2>&1)
  got1=$?
  out4=$(COMPDIFF_JOBS=4 dune exec bin/compdiff_cli.exe -- diff "$f" --jobs 4 2>&1)
  got4=$?
  set -e
  if [ "$got1" -ne "$got4" ] || [ "$out1" != "$out4" ]; then
    echo "FAIL $f: jobs=1 and jobs=4 disagree (exit $got1 vs $got4)"
    status=1
  else
    echo "ok   $f (jobs=1 == jobs=4, exit $got1)"
  fi
done

echo "== engine session smoke test"
# Cached vs fresh: the same diff with caching disabled and enabled must
# produce identical reports and exit codes, and a second cached juliet
# pass must be served from the session caches (nonzero hit rate).
for f in examples/unstable_uninit.c examples/stable_guarded.c; do
  set +e
  out0=$(dune exec bin/compdiff_cli.exe -- diff "$f" --cache-mb 0 2>&1)
  got0=$?
  out1=$(dune exec bin/compdiff_cli.exe -- diff "$f" --cache-mb 128 2>&1)
  got1=$?
  set -e
  if [ "$got0" -ne "$got1" ] || [ "$out0" != "$out1" ]; then
    echo "FAIL $f: cached and uncached diff disagree (exit $got0 vs $got1)"
    status=1
  else
    echo "ok   $f (cache-mb 0 == cache-mb 128, exit $got0)"
  fi
done
juliet_stats=$(dune exec bin/compdiff_cli.exe -- juliet --per-cwe 1 --stats 2>&1)
stats_ok "juliet --stats" "$juliet_stats" "oracle,session,localize"
hits=$(stat_at "$juliet_stats" session.units.hits)
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
  echo "FAIL juliet --stats: expected a nonzero unit-cache hit count"
  printf '%s\n' "$juliet_stats" | tail -5
  status=1
else
  echo "ok   juliet --stats (unit cache: $hits hits)"
fi

echo "== campaign determinism smoke test"
# A CompDiff-AFL++ campaign checks each batch of inputs beside the fuzz
# loop when it has a second job, and its session admits observations on
# their second request.  Neither may change what the campaign finds:
# sequential, overlapped and caching-disabled campaigns must print
# byte-identical reports and exit with the same code.
set +e
fz1=$(dune exec bin/compdiff_cli.exe -- fuzz examples/unstable_uninit.c \
  --execs 3000 --jobs 1 2>&1)
fgot1=$?
fz2=$(dune exec bin/compdiff_cli.exe -- fuzz examples/unstable_uninit.c \
  --execs 3000 --jobs 2 2>&1)
fgot2=$?
fz0=$(dune exec bin/compdiff_cli.exe -- fuzz examples/unstable_uninit.c \
  --execs 3000 --cache-mb 0 2>&1)
fgot0=$?
set -e
if [ "$fgot1" -ne "$fgot2" ] || [ "$fz1" != "$fz2" ]; then
  echo "FAIL fuzz: --jobs 1 and --jobs 2 disagree (exit $fgot1 vs $fgot2)"
  status=1
elif [ "$fgot1" -ne "$fgot0" ] || [ "$fz1" != "$fz0" ]; then
  echo "FAIL fuzz: cached and --cache-mb 0 campaigns disagree (exit $fgot1 vs $fgot0)"
  status=1
else
  echo "ok   fuzz (jobs 1 == jobs 2 == cache-mb 0, exit $fgot1)"
fi

echo "== disk cache smoke test"
# Cross-process persistence: fresh processes sharing one --disk-cache
# directory. The second process starts with empty in-memory LRUs, so it
# must produce byte-identical verdicts *and* report nonzero disk hits in
# --stats (every hit it gets can only have come back from the store).
diskdir=$(mktemp -d)
set +e
disk1=$(dune exec bin/compdiff_cli.exe -- juliet --per-cwe 1 \
  --disk-cache "$diskdir" 2>&1)
dgot1=$?
disk2=$(dune exec bin/compdiff_cli.exe -- juliet --per-cwe 1 \
  --disk-cache "$diskdir" 2>&1)
dgot2=$?
disk3=$(dune exec bin/compdiff_cli.exe -- juliet --per-cwe 1 \
  --disk-cache "$diskdir" --stats 2>&1)
set -e
rm -rf "$diskdir"
dhits=$(stat_at "$disk3" session.disk.hits)
if [ "$dgot1" -ne "$dgot2" ] || [ "$disk1" != "$disk2" ]; then
  echo "FAIL disk cache: restarted process disagrees (exit $dgot1 vs $dgot2)"
  status=1
elif [ -z "$dhits" ] || [ "$dhits" -eq 0 ]; then
  echo "FAIL disk cache: expected nonzero disk hits in a restarted process"
  printf '%s\n' "$disk3" | tail -8
  status=1
else
  echo "ok   disk cache (verdicts identical across restart, $dhits disk hits)"
fi

echo "== metacheck smoke test"
# The metamorphic meta-checker on the canonical eval-order seed (the
# oracle diverges on argument evaluation order, every sanitizer is
# silent) must cross-validate a sanitizer FN and generate at least 5
# UB-preserving twins, all of which re-typecheck (exit 2 otherwise).
seed=$(mktemp --suffix=.c)
cat > "$seed" <<'SEED'
int *addr_string(int v) {
  static int buffer[8];
  buffer[0] = 48 + v;
  buffer[1] = 0;
  return buffer;
}
int main() {
  print("who-is %s tell %s\n", addr_string(1), addr_string(2));
  return 0;
}
SEED
set +e
meta_out=$(dune exec bin/compdiff_cli.exe -- metacheck "$seed" 2>&1)
got=$?
set -e
rm -f "$seed"
if [ "$got" -ne 0 ]; then
  echo "FAIL metacheck: exited $got (retype failure or error)"
  printf '%s\n' "$meta_out" | tail -5
  status=1
else
  twins=$(printf '%s\n' "$meta_out" \
    | sed -n 's/^preserving twins: \([0-9]*\)$/\1/p' | head -1)
  if [ -z "$twins" ] || [ "$twins" -lt 5 ]; then
    echo "FAIL metacheck: ${twins:-0} preserving twins < 5"
    status=1
  elif ! printf '%s\n' "$meta_out" | grep -q "cross-validated FN"; then
    echo "FAIL metacheck: known sanitizer FN not cross-validated"
    status=1
  else
    echo "ok   metacheck ($twins preserving twins, sanitizer FN cross-validated)"
  fi
fi

echo "== reduce smoke test"
# Reduce a known divergence and assert the contract: the reduced input
# is no larger than the original, and still diverges under compdiff diff.
red=$(mktemp)
set +e
reduce_out=$(dune exec bin/compdiff_cli.exe -- reduce examples/unstable_uninit.c \
  --input 'XYZQRS' --stats --dump-program --out "$red" 2>&1)
got=$?
set -e
if [ "$got" -ne 1 ]; then
  echo "FAIL reduce: exited $got, expected 1 (divergence reduced)"
  status=1
else
  raw_size=$(wc -c < "$red.orig")
  red_size=$(wc -c < "$red")
  if [ "$red_size" -gt "$raw_size" ]; then
    echo "FAIL reduce: reduced input grew ($raw_size -> $red_size bytes)"
    status=1
  else
    set +e
    dune exec bin/compdiff_cli.exe -- diff examples/unstable_uninit.c \
      --input-file "$red" > /dev/null 2>&1
    diffgot=$?
    set -e
    if [ "$diffgot" -ne 1 ]; then
      echo "FAIL reduce: reduced input no longer flagged (diff exit $diffgot)"
      status=1
    else
      # the acceptance bar: median input reduction of at least 50%
      median=$(stat_at "$reduce_out" reduce.median_ratio)
      if [ -z "$median" ] || ! awk -v m="$median" 'BEGIN { exit !(m >= 0.5) }'; then
        echo "FAIL reduce: median input reduction ${median:-?} < 0.5"
        status=1
      else
        echo "ok   reduce ($raw_size -> $red_size bytes, median reduction $median, still diverges)"
      fi
    fi
  fi
fi
# The compile caches, the function memo among them, must not change what
# the reducer produces: the same reduction on a caching-disabled session
# gives the same exit code, a byte-identical reduced input and a
# byte-identical reduced program.
red0=$(mktemp)
set +e
reduce_out0=$(dune exec bin/compdiff_cli.exe -- reduce examples/unstable_uninit.c \
  --input 'XYZQRS' --cache-mb 0 --dump-program --out "$red0" 2>&1)
got0=$?
set -e
# the reduced program: from the "program:" line up to the report
program_of() { printf '%s\n' "$1" | sed -n '/^  program: /,/^=== CompDiff/p'; }
prog=$(program_of "$reduce_out")
prog0=$(program_of "$reduce_out0")
if [ "$got0" -ne "$got" ]; then
  echo "FAIL reduce --cache-mb 0: exited $got0, the cached run exited $got"
  status=1
elif ! cmp -s "$red" "$red0"; then
  echo "FAIL reduce --cache-mb 0: reduced input differs from the cached run"
  status=1
elif [ -z "$prog" ] || [ "$prog" != "$prog0" ]; then
  echo "FAIL reduce --cache-mb 0: reduced program differs from the cached run"
  status=1
else
  echo "ok   reduce --cache-mb 0 (exit $got0, byte-identical reduced input and program)"
fi
rm -f "$red0" "$red0.orig"
# Program reduction over a profile subset: candidate programs are
# re-checked on the same four profiles, so the program must shrink.
set +e
sub_out=$(dune exec bin/compdiff_cli.exe -- reduce examples/unstable_uninit.c \
  --input BB --dump-program --profiles gccx-O0,clangx-O2,gccx-O2,clangx-O0 2>&1)
set -e
shrunk=$(printf '%s\n' "$sub_out" \
  | sed -n 's/^  program: \([0-9]*\) -> \([0-9]*\) statements$/\1 \2/p')
if [ -n "$shrunk" ] && [ "${shrunk#* }" -lt "${shrunk% *}" ]; then
  echo "ok   reduce --profiles subset (program: ${shrunk% *} -> ${shrunk#* } statements)"
else
  echo "FAIL reduce --profiles subset: no program shrink line"
  status=1
fi
echo "== explore smoke test"
# Time-travel the divergence the reducer just minimized: explore must
# record both sides at instruction granularity, pin a first diverging
# instruction on each at the source line of the print that reads the
# uninitialized count, and print a value diff for it.
count_line=$(grep -n 'print("count' examples/unstable_uninit.c | cut -d: -f1)
set +e
explore_out=$(dune exec bin/compdiff_cli.exe -- explore examples/unstable_uninit.c \
  --input-file "$red" 2>&1)
got=$?
set -e
if [ "$got" -ne 1 ]; then
  echo "FAIL explore: exited $got, expected 1 (divergence explored)"
  printf '%s\n' "$explore_out" | tail -5
  status=1
elif ! printf '%s\n' "$explore_out" \
    | grep -q "first diverging instruction: step [0-9]*, .*(line $count_line)"; then
  echo "FAIL explore: first diverging instruction not at line $count_line"
  printf '%s\n' "$explore_out" | tail -8
  status=1
elif ! printf '%s\n' "$explore_out" | grep -q 'diff (.* probes): .* writes '; then
  echo "FAIL explore: no value diff at the diverging instruction"
  printf '%s\n' "$explore_out" | tail -8
  status=1
else
  at=$(printf '%s\n' "$explore_out" \
    | sed -n 's/.*first diverging instruction: step \([0-9]*\).*/\1/p' | head -1)
  echo "ok   explore (first diverging instruction at step $at, line $count_line, value diff shown)"
fi
rm -f "$red" "$red.orig"
# Save the diverging pair's traces into a directory that does not exist
# yet, then replay each stored trace: it must load and report the step
# count the pair view printed for that side.
trdir=$(mktemp -d)
set +e
pair_out=$(dune exec bin/compdiff_cli.exe -- explore examples/unstable_uninit.c \
  --input XYZQRS --save-trace "$trdir/pair/traces" 2>&1)
got=$?
set -e
saved=$(printf '%s\n' "$pair_out" | sed -n 's/^saved trace: //p')
if [ "$got" -ne 1 ] || [ "$(printf '%s\n' "$saved" | grep -c .)" -ne 2 ]; then
  echo "FAIL explore --save-trace: exited $got, expected 1 and two saved traces"
  printf '%s\n' "$pair_out" | tail -5
  status=1
else
  rt_ok=1
  for f in $saved; do
    set +e
    loaded=$(dune exec bin/compdiff_cli.exe -- explore --load-trace "$f" 2>&1)
    lgot=$?
    set -e
    impl=$(printf '%s\n' "$loaded" | sed -n 's/^trace: \([^ ]*\) on input "XYZQRS" .*/\1/p')
    steps=$(printf '%s\n' "$loaded" | sed -n 's/^trace: .*, \([0-9]*\) steps.*/\1/p')
    if [ "$lgot" -ne 0 ] || [ -z "$impl" ] \
        || ! printf '%s\n' "$pair_out" | grep -q "^  $impl *$steps steps,"; then
      echo "FAIL explore --load-trace $f: exited $lgot, or its steps differ from the pair view"
      printf '%s\n' "$loaded" | head -3
      rt_ok=0
      status=1
    fi
  done
  [ "$rt_ok" -eq 1 ] && echo "ok   explore --save-trace -> --load-trace (2 traces replayed)"
fi
# One profile: record that implementation alone and list its events.
# Its view must be the --load-trace view of the trace it saved.
set +e
one_out=$(dune exec bin/compdiff_cli.exe -- explore examples/unstable_uninit.c \
  --input XYZQRS --profiles gccx-O0 --save-trace "$trdir/one" 2>&1)
got=$?
set -e
one_file=$(printf '%s\n' "$one_out" | sed -n 's/^saved trace: //p')
if [ "$got" -ne 0 ]; then
  echo "FAIL explore --profiles gccx-O0: exited $got, expected 0"
  printf '%s\n' "$one_out" | tail -5
  status=1
elif ! printf '%s\n' "$one_out" | grep -q '^   0  \[test_case\] "count: '; then
  echo "FAIL explore --profiles gccx-O0: no event list"
  printf '%s\n' "$one_out" | head -5
  status=1
elif [ "$(printf '%s\n' "$one_out" | grep -v '^saved trace: ')" \
    != "$(dune exec bin/compdiff_cli.exe -- explore --load-trace "$one_file" 2>&1)" ]; then
  echo "FAIL explore --profiles gccx-O0: view differs from --load-trace of its saved trace"
  status=1
else
  echo "ok   explore --profiles gccx-O0 (single trace, events listed, == --load-trace)"
fi
# A path that is not a trace ends in a message and exit 2, never an
# uncaught exception: a directory, and a trace file cut short.
head -c 40 "$one_file" > "$trdir/truncated.ctr" 2>/dev/null || true
for bad in "$trdir" "$trdir/truncated.ctr"; do
  set +e
  bad_out=$(dune exec bin/compdiff_cli.exe -- explore --load-trace "$bad" 2>&1)
  got=$?
  set -e
  if [ "$got" -ne 2 ] || [ -z "$bad_out" ]; then
    echo "FAIL explore --load-trace $bad: exited $got, expected 2 with a message"
    status=1
  else
    echo "ok   explore --load-trace rejects $(basename "$bad") ($bad_out)"
  fi
done
rm -rf "$trdir"
# A caching session compiles without line tables and rebuilds the two
# traced units' tables on demand; at --cache-mb 0 every unit comes from
# the lined reference compile.  Both must print the same bytes, with a
# source line at the first diverging instruction.
set +e
lines_out=$(dune exec bin/compdiff_cli.exe -- explore examples/unstable_uninit.c \
  --input XYZQRS --profiles gccx-O2,clangx-O3 --json 2>&1)
lines_ref=$(dune exec bin/compdiff_cli.exe -- explore examples/unstable_uninit.c \
  --input XYZQRS --profiles gccx-O2,clangx-O3 --json --cache-mb 0 2>&1)
set -e
if [ "$lines_out" != "$lines_ref" ]; then
  echo "FAIL explore --json: default cache and --cache-mb 0 differ"
  status=1
elif ! printf '%s\n' "$lines_out" | grep -q '"line": [0-9]'; then
  echo "FAIL explore --json: no source line at the diverging instruction"
  printf '%s\n' "$lines_out" | tail -3
  status=1
else
  echo "ok   explore --json: on-demand line tables = --cache-mb 0 (line attributed)"
fi

echo "== JSON output smoke test"
# --stats prints its statistics as one object on the output's last
# line, with a member per counter set the command has.
set +e
CLI="dune exec bin/compdiff_cli.exe --"
json_ok "explore --json (pair)" "$lines_out"
json_ok "explore --json (one profile, input bytes 0xff 0xc0)" \
  "$($CLI explore examples/unstable_uninit.c --input "$(printf 'A\377\300Z')" \
    --profiles gccx-O2 --json 2>&1)"
json_ok "static --json" "$($CLI static examples/unstable_uninit.c --json --warnings 2>&1)"
json_ok "metacheck --json" "$($CLI metacheck examples/unstable_uninit.c --json 2>&1)"
stats_ok "diff --stats" \
  "$($CLI diff examples/unstable_uninit.c --input XYZQRS --stats 2>&1)" \
  "oracle,session,localize"
stats_ok "reduce --stats" \
  "$($CLI reduce examples/unstable_uninit.c --input XYZQRS --stats 2>&1)" \
  "reduce,oracle,session,localize"
set -e

echo "== localize smoke test"
# Event-level localization of the uninit example must name the
# function and UnstableCheck's root cause.
set +e
loc_out=$(dune exec bin/compdiff_cli.exe -- localize examples/unstable_uninit.c \
  --input XYZQRS 2>&1)
got=$?
set -e
if [ "$got" -ne 1 ]; then
  echo "FAIL localize: exited $got, expected 1 (divergence localized)"
  printf '%s\n' "$loc_out" | tail -5
  status=1
elif ! printf '%s\n' "$loc_out" | grep -q "^  diverges in function 'test_case':"; then
  echo "FAIL localize: not localized into test_case"
  printf '%s\n' "$loc_out" | tail -5
  status=1
elif ! printf '%s\n' "$loc_out" | grep -q '^suggested root cause: UninitMem'; then
  echo "FAIL localize: no 'suggested root cause: UninitMem'"
  printf '%s\n' "$loc_out" | tail -5
  status=1
else
  echo "ok   localize (test_case, suggested root cause: UninitMem)"
fi

echo "== labeled-corpus generator smoke test"
# 50 generated clean/injected pairs swept through every tool: all 50
# must survive print -> parse -> typecheck (the generator emits source),
# and no clean twin may diverge under the oracle -- a clean-twin
# divergence disproves the generator's UB-freedom argument.
set +e
gen_out=$(dune exec bin/compdiff_cli.exe -- gen --count 50 --report 2>&1)
got=$?
set -e
gen_fail=$(printf '%s\n' "$gen_out" \
  | sed -n 's/.*typecheck failures: \([0-9]*\)).*/\1/p' | head -1)
gen_clean=$(printf '%s\n' "$gen_out" \
  | sed -n 's/^clean-twin divergences: \([0-9]*\)$/\1/p' | head -1)
if [ "$got" -ne 0 ]; then
  echo "FAIL gen: exited $got"
  printf '%s\n' "$gen_out" | tail -5
  status=1
elif [ "${gen_fail:-1}" -ne 0 ]; then
  echo "FAIL gen: ${gen_fail:-?} typecheck failures (expected 0)"
  status=1
elif [ "${gen_clean:-1}" -ne 0 ]; then
  echo "FAIL gen: ${gen_clean:-?} clean-twin divergences (expected 0)"
  status=1
else
  echo "ok   gen (50 pairs, 0 typecheck failures, 0 clean-twin divergences)"
fi

echo "== connect error smoke test"
# connect's options that travel in u32 protocol fields reject values
# out of range at parse time (usage error, exit 124), and a socket with
# no daemon behind it is a message and exit 2.
nosock="$(mktemp -u -t compdiff_check_XXXXXX).sock"
set +e
dune exec bin/compdiff_cli.exe -- connect --socket "$nosock" --fuel=-1 \
  examples/unstable_uninit.c > /dev/null 2>&1
fuel_rc=$?
nod_out=$(dune exec bin/compdiff_cli.exe -- connect --socket "$nosock" --ping 2>&1)
nod_rc=$?
# diff's --fuel is shared with the local path; the daemon path checks
# the u32 range itself, before connecting
dfuel_out=$(dune exec bin/compdiff_cli.exe -- diff --daemon "$nosock" --fuel=-1 \
  examples/unstable_uninit.c 2>&1)
dfuel_rc=$?
set -e
if [ "$fuel_rc" -ne 124 ]; then
  echo "FAIL connect --fuel=-1: exited $fuel_rc, expected 124"
  status=1
else
  echo "ok   connect --fuel=-1 is a usage error (exit 124)"
fi
if [ "$dfuel_rc" -ne 124 ]; then
  echo "FAIL diff --daemon --fuel=-1: exited $dfuel_rc, expected 124: $dfuel_out"
  status=1
else
  echo "ok   diff --daemon --fuel=-1 is a usage error (exit 124)"
fi
if [ "$nod_rc" -ne 2 ] || ! printf '%s\n' "$nod_out" | grep -q '^cannot connect to '; then
  echo "FAIL connect without a daemon: exited $nod_rc: $nod_out"
  status=1
else
  echo "ok   connect without a daemon ($nod_out)"
fi

echo "== serve daemon smoke test"
# A daemon on a Unix socket must serve concurrent clients verdicts that
# are byte-identical to the direct (in-process) diff path, then exit on
# its own via the idle timeout, removing its socket, and print its
# --stats object as it exits.  The daemon and
# its clients run the built binary directly: `dune exec` holds the
# build-directory lock for the program's whole lifetime, which would
# serialize the concurrent clients behind the daemon.
BIN=_build/default/bin/compdiff_cli.exe
sock="$(mktemp -u -t compdiff_check_XXXXXX).sock"
serve_log=$(mktemp)
"$BIN" serve --socket "$sock" --idle-timeout 10 --quiet --stats > "$serve_log" &
serve_pid=$!
i=0
while [ ! -S "$sock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
if [ ! -S "$sock" ]; then
  echo "FAIL serve: daemon socket never appeared"
  status=1
else
  set +e
  "$BIN" connect --socket "$sock" --ping > /dev/null 2>&1
  pinged=$?
  set -e
  if [ "$pinged" -ne 0 ]; then
    echo "FAIL serve: ping failed"
    status=1
  fi
  # two clients at once, each asserting daemon == direct per example
  serve_client() {
    for f in examples/*.c; do
      [ -e "$f" ] || continue
      set +e
      direct=$("$BIN" diff "$f" 2>&1)
      dgot=$?
      viad=$("$BIN" diff "$f" --daemon "$sock" 2>&1)
      vgot=$?
      set -e
      if [ "$dgot" -ne "$vgot" ] || [ "$direct" != "$viad" ]; then
        echo "FAIL serve[$1] $f: daemon and direct disagree (exit $dgot vs $vgot)"
        return 1
      fi
    done
  }
  client_status=0
  serve_client A & ca=$!
  serve_client B & cb=$!
  wait $ca || client_status=1
  wait $cb || client_status=1
  if [ "$client_status" -ne 0 ]; then
    status=1
  else
    echo "ok   serve (2 concurrent clients, daemon == direct on every example)"
  fi
  # A repeated check is answered from the stored observations on the
  # connection's reader thread: three identical requests must print the
  # same bytes and exit alike, and the daemon must count inline answers.
  repeat_f=examples/unstable_uninit.c
  set +e
  first=$("$BIN" diff "$repeat_f" --daemon "$sock" 2>&1)
  first_rc=$?
  repeat_status=0
  for _ in 2 3; do
    again=$("$BIN" diff "$repeat_f" --daemon "$sock" 2>&1)
    again_rc=$?
    if [ "$again_rc" -ne "$first_rc" ] || [ "$again" != "$first" ]; then
      repeat_status=1
    fi
  done
  remote=$("$BIN" connect --socket "$sock" --remote-stats 2>/dev/null)
  inline=$(printf '%s\n' "$remote" | grep -o '"inline": [0-9]*' | cut -d' ' -f2)
  set -e
  stats_ok "connect --remote-stats" "$remote" "oracle,session,localize,scheduler"
  if [ "$repeat_status" -ne 0 ]; then
    echo "FAIL serve: repeated daemon checks of $repeat_f differ"
    status=1
  elif [ "${inline:-0}" -le 0 ]; then
    echo "FAIL serve: no check answered inline (inline=${inline:-?})"
    status=1
  else
    echo "ok   serve (3 identical repeated checks, $inline answered inline)"
  fi
  # The warm-oracle table is an LRU cache within the session's budget:
  # the scheduler member reports its counters, and the checks above
  # left at least one oracle warm.
  set +e
  warm=$(printf '%s\n' "$remote" | tail -n 1 | python3 -c '
import json, sys
w = json.loads(sys.stdin.read())["scheduler"]["warm"]
counts = [w[k] for k in ("entries", "bytes", "evictions")]
assert all(isinstance(c, int) for c in counts) and counts[0] >= 1 and counts[1] > 0
print("%d entries, %d bytes, %d evictions" % tuple(counts))' 2>/dev/null)
  warm_rc=$?
  set -e
  if [ "$warm_rc" -ne 0 ]; then
    echo "FAIL serve: --remote-stats has no warm-table counters (entries, bytes, evictions)"
    status=1
  else
    echo "ok   serve (warm table: $warm)"
  fi
  # connect's request kinds beyond a check: each prints its reply and
  # exits by it, and a daemon error exits 2 with the daemon's message
  bad_src=$(mktemp)
  printf 'int main(void) { return undeclared; }\n' > "$bad_src"
  connect_kind() {
    # $1 label, $2 expected exit code, $3 pattern the output must match,
    # the rest connect's arguments
    label=$1 want=$2 pattern=$3
    shift 3
    set +e
    kind_out=$("$BIN" connect --socket "$sock" "$@" 2>&1)
    kind_rc=$?
    set -e
    if [ "$kind_rc" -ne "$want" ] || ! printf '%s\n' "$kind_out" | grep -q "$pattern"; then
      echo "FAIL connect $label: exited $kind_rc (expected $want) or no '$pattern'"
      printf '%s\n' "$kind_out" | tail -5
      status=1
    else
      echo "ok   connect $label (exit $kind_rc)"
    fi
  }
  connect_kind "--fuzz-execs" 1 '^200 execs, [0-9]* divergent, [1-9][0-9]* unique$' \
    examples/unstable_uninit.c --fuzz-execs 200
  connect_kind "--metacheck" 0 '^preserving twins: [0-9]*$' \
    examples/unstable_uninit.c --metacheck
  connect_kind "--reduce" 1 '^reduced 6 -> [0-9]* bytes in [0-9]* checks$' \
    examples/unstable_uninit.c --reduce --input XYZQRS
  connect_kind "--reduce on a type error" 2 '^daemon error: .*unbound variable undeclared' \
    "$bad_src" --reduce --input A
  rm -f "$bad_src"
fi
# with no clients left, the idle timeout must shut the daemon down
set +e
wait $serve_pid
served=$?
set -e
if [ "$served" -ne 0 ]; then
  echo "FAIL serve: daemon exited $served"
  status=1
elif [ -e "$sock" ]; then
  echo "FAIL serve: socket file left behind after idle shutdown"
  status=1
else
  echo "ok   serve (idle timeout shutdown, socket removed)"
fi
stats_ok "serve --stats" "$(cat "$serve_log")" "oracle,session,localize,scheduler"
rm -f "$serve_log"

exit $status
