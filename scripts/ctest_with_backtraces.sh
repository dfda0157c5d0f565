#!/usr/bin/env bash
# Runs ctest with a per-test timeout and leaves evidence when a test hangs:
# any test process still alive `margin` seconds before the timeout has every
# thread's backtrace printed (gdb) before ctest kills it.
#
# Usage: scripts/ctest_with_backtraces.sh BUILD_DIR TIMEOUT_S [ctest args...]
#   e.g. scripts/ctest_with_backtraces.sh build 120 -j4 --repeat until-fail:20
#
# Attaching to a process that is not a child needs ptrace rights: run as
# root, under sudo, or with kernel.yama.ptrace_scope=0. Without gdb the
# watchdog prints the hung process's thread list instead.
set -u

build_dir="$1"
timeout_s="$2"
shift 2
margin=20
dump_after=$(( timeout_s > margin ? timeout_s - margin : timeout_s / 2 ))
tests_dir="$(cd "${build_dir}" && pwd)/tests/"
dumped_dir="$(mktemp -d)"

dump_threads() {
  local pid="$1"
  echo "== test process ${pid} still running after ${dump_after}s:" \
       "$(tr '\0' ' ' < "/proc/${pid}/cmdline" 2>/dev/null)"
  if command -v gdb > /dev/null; then
    local gdb=(gdb)
    if [ "$(id -u)" != 0 ] && sudo -n true 2> /dev/null; then
      gdb=(sudo -n gdb)
    fi
    "${gdb[@]}" -batch -ex 'thread apply all bt' -p "${pid}" 2>&1
  else
    echo "(gdb not installed; thread list only)"
    ps -L -o pid,lwp,stat,wchan:32,etimes,comm -p "${pid}"
  fi
}

watch_tests() {
  while sleep 5; do
    for pid in $(pgrep -f "^${tests_dir}"); do
      [ -e "${dumped_dir}/${pid}" ] && continue
      age="$(ps -o etimes= -p "${pid}" 2> /dev/null | tr -d ' ')"
      if [ -n "${age}" ] && [ "${age}" -ge "${dump_after}" ]; then
        touch "${dumped_dir}/${pid}"
        dump_threads "${pid}"
      fi
    done
  done
}

watch_tests &
watcher=$!
status=0
ctest --test-dir "${build_dir}" --output-on-failure --timeout "${timeout_s}" \
  "$@" || status=$?
kill "${watcher}" 2> /dev/null
wait "${watcher}" 2> /dev/null
rm -rf "${dumped_dir}"
exit "${status}"
