#!/usr/bin/env bash
# Counts the fused multiply-add instructions (FMADD, FMSUB, FNMADD,
# FNMSUB; double and single forms) that the Go compiler emits for arm64
# in each numeric package, and fails when a count exceeds its ceiling
# below. On arm64 the compiler fuses x*y+z into one instruction with a
# single rounding, so a result can differ from amd64's in its last bit:
# every new fused site is a place where arm64 runs may part from the
# hashes and renders pinned on amd64. Run from the repository root:
#
#	bash scripts/fmacount.sh
#
# A count that falls below its ceiling passes; lower the ceiling with it.
set -euo pipefail

declare -A ceiling=(
	[vecmath]=33 [nn]=111 [fl]=129 [core]=116 [baselines]=117 [aggstack]=8 [compress]=4
)

status=0
for pkg in vecmath nn fl core baselines aggstack compress; do
	asm=$(GOARCH=arm64 go build -gcflags=-S -o /dev/null "./internal/$pkg" 2>&1)
	n=$(grep -cE '\bF(N)?M(ADD|SUB)[DS]\b' <<<"$asm" || true)
	max=${ceiling[$pkg]}
	if ((n > max)); then
		echo "internal/$pkg: $n fused multiply-adds on arm64, ceiling $max"
		status=1
	elif ((n < max)); then
		echo "internal/$pkg: $n fused multiply-adds on arm64 (ceiling $max; lower it)"
	else
		echo "internal/$pkg: $n fused multiply-adds on arm64"
	fi
done
exit $status
