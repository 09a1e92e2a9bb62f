#!/usr/bin/env bash
# Prints the size numbers the ROADMAP's aim 2 tracks: for each crate, the
# lines of Rust under its `src` and the `pub` items declared there; the
# lines of `crates src tests`; and every `SRAA_*` environment variable the
# code reads, with where it is read. Usage: scripts/surface.sh
set -euo pipefail
cd "$(dirname "$0")/.."

rs_files() { find "$@" -path '*/target' -prune -o -name '*.rs' -print | sort; }
pub_re='^\s*pub (fn|struct|enum|trait|type|const|static|mod|use|unsafe)'

printf '%-14s %7s %5s\n' crate lines pub
for dir in src crates/*/src; do
  name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$(dirname "$dir")/Cargo.toml" | head -n 1)
  files=$(rs_files "$dir")
  lines=$(cat $files | wc -l)
  pubs=$(cat $files | grep -cE "$pub_re" || true)
  printf '%-14s %7d %5d\n' "$name" "$lines" "$pubs"
done
printf '%-14s %7d\n' 'crates src tests' "$(cat $(rs_files crates src tests) | wc -l)"

echo 'env vars read:'
rs_files crates src tests examples perfbench \
  | xargs grep -noE 'var(_os)?\("SRAA_[A-Z0-9_]+"' \
  | sed -E 's/^(.*):[0-9]+:var(_os)?\("(SRAA_[A-Z0-9_]+)"$/  \3 \1/' | sort -u
