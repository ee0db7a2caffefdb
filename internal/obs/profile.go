package obs

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfile starts CPU profiling into cpuPath (empty = off) and returns a
// stop function that ends it and writes a heap profile to memPath (empty =
// off). With both paths empty it does nothing. dsegen and dserun expose it
// as their -cpuprofile/-memprofile pair.
func StartProfile(cpuPath, memPath string) (stop func() error, err error) {
	var cpuF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialise final live-heap numbers
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
