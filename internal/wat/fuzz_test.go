package wat_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"wasabi/internal/polybench"
	"wasabi/internal/wat"
)

// FuzzWatParse checks the .wat boundary of untrusted input: any source text
// yields a module or an error, never a panic and never a hang. Run with
// `go test -fuzz=FuzzWatParse ./internal/wat/`; the seeds alone run as a
// regular test.
func FuzzWatParse(f *testing.F) {
	for _, src := range []string{
		factorialWat,
		richWat,
		";",
		"(module;)",
		"(module (func ;))",
		"(module (; unterminated block comment",
		`(module (data (i32.const 0) "unterminated`,
	} {
		f.Add(src)
	}
	for _, name := range []string{"gemm", "atax", "jacobi-1d"} {
		k, ok := polybench.ByName(name)
		if !ok {
			f.Fatalf("no polybench kernel %q", name)
		}
		f.Add(wat.ToString(k.Module(4)))
	}
	f.Fuzz(func(t *testing.T, src string) {
		res := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					res <- fmt.Errorf("panic: %v", r)
				}
			}()
			m, err := wat.Parse(src)
			if err == nil && m == nil {
				res <- errors.New("nil module without an error")
				return
			}
			res <- nil
		}()
		select {
		case err := <-res:
			if err != nil {
				t.Fatalf("Parse(%q): %v", src, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Parse(%q) did not return within 10s", src)
		}
	})
}
