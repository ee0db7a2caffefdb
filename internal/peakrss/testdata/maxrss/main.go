// Command maxrss runs its arguments as a child process, sends the child's
// output to stderr and prints the child's peak resident set in KiB.
//
// Go starts a child with vfork, so Linux counts the parent's peak resident
// set in the child's maxrss as well. A test binary built with -race peaks
// near 20 MB; this helper is built without it and peaks at a few MB, below
// what it measures.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: maxrss command [args...]")
		os.Exit(2)
	}
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "maxrss:", err)
		os.Exit(1)
	}
	fmt.Println(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss)
}
