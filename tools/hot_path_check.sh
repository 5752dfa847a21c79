#!/usr/bin/env bash
# Hot-path guard (wired into ctest as `hot_path_check`): the per-op injector
# entry points must be inlined into every kernel, never called.
#
# FaultInjector::Execute / ExecuteComparison / ExecuteLoad and the free
# faulty::Execute* wrappers are forced inline (fault_injector.h).  If any of
# them shows up as a defined symbol in the static library, some translation
# unit emitted an out-of-line copy and calls it per op — a call, a spill and
# a reload on every faulty::Real operation.  That regression once left
# SortObjective<Real>::Value making 16 such calls and erased the gain of a
# faster fault path without any test noticing, so this check fails loudly
# instead.
#
# Usage: hot_path_check.sh <path-to-librobustify.a>
set -euo pipefail

LIB="${1:?usage: hot_path_check.sh <path-to-librobustify.a>}"
NM="${NM:-nm}"

command -v "$NM" >/dev/null || { echo "FAIL: '$NM' not found" >&2; exit 1; }
test -s "$LIB" || { echo "FAIL: no library at $LIB" >&2; exit 1; }

SYMBOLS="$("$NM" -C "$LIB" 2>/dev/null)"

# Sanity: the out-of-line fault path must be there, or the symbol listing
# is not of this library and an empty match below would prove nothing.
if ! grep -qE ' [Tt] robustify::faulty::FaultInjector::FaultPath\(double\)' <<<"$SYMBOLS"; then
  echo "FAIL: FaultInjector::FaultPath(double) not defined in $LIB" >&2
  exit 1
fi

# Defined (T/t text, W/w weak) per-op entry points.
OUT_OF_LINE="$(grep -E ' [TtWw] robustify::faulty::(FaultInjector::)?Execute[A-Za-z]*\(' \
  <<<"$SYMBOLS" | sort -u || true)"
if [ -n "$OUT_OF_LINE" ]; then
  echo "FAIL: out-of-line per-op injector entry points in $LIB:" >&2
  echo "$OUT_OF_LINE" >&2
  echo "Every faulty::Real op calling one of these pays a function call;" >&2
  echo "they must stay forced inline (ROBUSTIFY_ALWAYS_INLINE)." >&2
  exit 1
fi

echo "hot_path_check: OK (no out-of-line Execute*, FaultPath out of line)"
