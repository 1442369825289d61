//go:build amd64 && !noasm

package vecmath

// useAVX gates every AVX2+FMA assembly body in the package. It is
// resolved once at init from CPUID; on CPUs without AVX2/FMA the kernel
// tables stay empty and every driver runs its pure-Go loop.
var useAVX = cpuSupportsAVX2FMA()

// cpuSupportsAVX2FMA reports whether the CPU supports AVX2 and FMA3 and
// the OS has enabled YMM state (CPUID leaves 1 and 7 plus XGETBV).
func cpuSupportsAVX2FMA() bool

var kern64, kern32 = avxKernels()

func avxKernels() (k64 kernels[float64], k32 kernels[float32]) {
	if !useAVX {
		return
	}
	k64 = kernels[float64]{
		wide:     8,
		gemm4:    gemmKernel4x8,
		gemm1:    gemmKernel1x8,
		atb4:     atbKernel4x8,
		atb1:     atbKernel1x8,
		abt2:     abtKernel2xN,
		axpy:     axpyKernel,
		axpypy:   axpypyKernel,
		add:      addKernel,
		sub:      subKernel,
		subScale: subScaleKernel,
		relu:     reluKernel,
		reluGrad: reluGradKernel,
		widen:    widenKernel,
		narrow:   narrowKernel,
		quantize: quantizeKernel,
		foldMax:  foldMaxKernel,
		quantDec: quantDecKernel,
		maxAbs:   maxAbsKernel,
		fill:     fillKernel,
		pool2:    pool2Kernel,

		gather:    gatherKernel,
		gatherSum: gatherSumKernel,
	}
	k32 = kernels[float32]{
		wide:      16,
		gemm4:     gemm32Kernel4x16,
		gemm4Half: gemm32Kernel4x8,
		gemm1:     gemm32Kernel1x16,
		gemm1Half: gemm32Kernel1x8,
		atb4:      atb32Kernel4x16,
		atb4Half:  atb32Kernel4x8,
		atb1:      atb32Kernel1x16,
		atb1Half:  atb32Kernel1x8,
		abt2:      abt32Kernel2xN,
		axpy:      axpy32Kernel,
		axpypy:    axpypy32Kernel,
		add:       add32Kernel,
		relu:      relu32Kernel,
		reluGrad:  reluGrad32Kernel,
	}
	return
}
