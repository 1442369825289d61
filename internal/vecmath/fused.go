package vecmath

// Fused level-1 kernels for the federated-learning hot path. Every local
// SGD step of a correction-based method (Scaffold, TACO, the hybrids)
// used to make two full passes over the d-length parameter vector —
// adjust the gradient in place, then apply the step — and every
// freeloader replay made two more (subtract, then rescale). The fused
// kernels below do each pair in a single pass, with AVX2+FMA assembly on
// amd64 (gated by the same CPUID check as the GEMM microkernels) and
// pure-Go fallbacks elsewhere and for vector tails.
//
// The assembly bodies use FMA, so their roundings differ from the
// fallback's separate multiply/add in the last ulp; like the GEMM
// kernels, callers must not assume bit-identical results across
// machines, only within one process (which is what the engine's
// parallelism-independence guarantee is stated over).

// AXPYPY computes z[i] += a*x[i] + b*y[i] in one pass — the fused form
// of GradAdjust-then-AXPY: with a = −ηl, x the raw mini-batch gradient,
// b = −ηl·coeff, and y the method's correction vector, it applies the
// corrected step w ← w − ηl·(g + coeff·c) without materializing the
// adjusted gradient.
func AXPYPY[F Float](a F, x []F, b F, y, z []F) {
	checkLen("AXPYPY", len(x), len(z))
	checkLen("AXPYPY", len(y), len(z))
	kn := kernelsFor[F]()
	if i := kn.head(kn.axpypy != nil, len(z)); i > 0 {
		kn.axpypy(a, &x[0], b, &y[0], &z[0], i)
		x, y, z = x[i:], y[i:], z[i:]
	}
	for i := range z {
		z[i] += a*x[i] + b*y[i]
	}
}

// SubScale computes dst[i] = s*(a[i]-b[i]) in one pass — the fused form
// of Sub-then-Scale used by the freeloader replay ∆ = scale·(w^{t−1} −
// w^t). dst may alias a or b.
func SubScale[F Float](dst []F, s F, a, b []F) {
	checkLen("SubScale", len(a), len(b))
	checkLen("SubScale", len(dst), len(a))
	kn := kernelsFor[F]()
	if i := kn.head(kn.subScale != nil, len(dst)); i > 0 {
		kn.subScale(s, &a[0], &b[0], &dst[0], i)
		dst, a, b = dst[i:], a[i:], b[i:]
	}
	for i := range dst {
		dst[i] = s * (a[i] - b[i])
	}
}
