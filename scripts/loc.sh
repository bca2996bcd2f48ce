#!/usr/bin/env bash
# loc.sh — prints the number of non-test Go lines outside planbench/,
# the size figure ROADMAP aim 2 tracks per change. Counts every line
# (blank and comment lines included) of the tracked and untracked,
# non-ignored *.go files that are not *_test.go.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files --cached --others --exclude-standard -- '*.go' ':!:*_test.go' ':!:planbench/' |
	while read -r f; do [ -f "$f" ] && cat "$f"; done | wc -l | tr -d ' '
