package codegen

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/ir"
	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// TestEmittedCRuns compiles the generated vmcu_fc with a harness main
// (portable scalar path), runs it over a pool of exactly the plan's
// capacity with the input the plan's gap above the output, and requires
// its output to equal kernels.GoldenFC and the IR interpreter on the
// simulated device byte for byte. The shapes cover gap-0 placements,
// where the output overwrites the input in place, and all −128 operands;
// every second case starts the output one segment before the pool's end,
// so both tensors wrap around it. Skipped when no compiler is installed.
func TestEmittedCRuns(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no host C compiler")
	}
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		m, k, n int
		scale   float64
		zp      int32
		extreme bool // every input and weight byte −128
	}{
		{4, 16, 32, 0.011, -3, false},
		{3, 32, 16, 0.02, 0, false},  // gap 0: in place
		{5, 16, 16, 0.004, 2, false}, // gap 0: in place
		{2, 24, 48, 0.03, -1, false},
		{4, 32, 16, 0.0001, 0, true}, // gap 0, largest products
		{3, 16, 32, 0.02, -5, true},  // requantization saturates at 127
	}
	dir := t.TempDir()
	for ci, cse := range cases {
		p := plan.FC(cse.m, cse.k, cse.n)
		req := tensor.NewRequant(cse.scale, cse.zp)
		capBytes := (p.FootprintBytes + p.SegBytes - 1) / p.SegBytes * p.SegBytes
		in := make([]int8, cse.m*cse.k)
		w := make([]int8, cse.n*cse.k)
		bias := make([]int32, cse.n)
		for _, v := range [][]int8{in, w} {
			for i := range v {
				v[i] = int8(rng.Intn(256) - 128)
				if cse.extreme {
					v[i] = -128
				}
			}
		}
		for i := range bias {
			bias[i] = int32(rng.Intn(1<<9) - 1<<8)
		}
		outOff := ci % 2 * (capBytes - p.SegBytes)
		name := fmt.Sprintf("fc%dx%dx%d gap=%dB out@%d", cse.m, cse.k, cse.n, p.GapBytes(), outOff)
		want := kernels.GoldenFC(in, cse.m, cse.k, cse.n, w, bias, req)
		prog := ir.BuildFC(cse.m, cse.k, cse.n, p.SegBytes, req)

		sim := simulateFC(t, prog, p, capBytes, outOff, in, w, bias, cse.m*cse.n)
		if !slices.Equal(sim, want) {
			t.Errorf("%s: IR interpreter output differs from GoldenFC", name)
		}

		src := EmitC(prog, Options{PoolCapBytes: capBytes}) + harness(in, w, bias, outOff+p.GapBytes(), outOff, cse.m*cse.n)
		path := filepath.Join(dir, fmt.Sprintf("fc%d.c", ci))
		bin := filepath.Join(dir, fmt.Sprintf("fc%d", ci))
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if out, err := exec.Command(cc, "-std=c99", "-Wall", "-Werror", "-O1", path, "-o", bin).CombinedOutput(); err != nil {
			t.Fatalf("%s: cc failed: %v\n%s\n--- source ---\n%s", name, err, out, src)
		}
		out, err := exec.Command(bin).Output()
		if err != nil {
			t.Fatalf("%s: run failed: %v", name, err)
		}
		var got []int8
		for _, f := range strings.Fields(string(out)) {
			v, err := strconv.Atoi(f)
			if err != nil {
				t.Fatalf("%s: bad output %q", name, f)
			}
			got = append(got, int8(v))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: compiled kernel output differs from GoldenFC\ngot:  %v\nwant: %v", name, got, want)
		}
	}
}

// harness is a C main that places in at pool offset inOff, runs vmcu_fc
// with its output at outOff, and prints the outBytes output bytes, one per
// line.
func harness(in, w []int8, bias []int32, inOff, outOff, outBytes int) string {
	list := func(vs []string) string { return strings.Join(vs, ", ") }
	var ins, ws, bs []string
	for _, v := range in {
		ins = append(ins, strconv.Itoa(int(v)))
	}
	for _, v := range w {
		ws = append(ws, strconv.Itoa(int(v)))
	}
	for _, v := range bias {
		bs = append(bs, strconv.Itoa(int(v)))
	}
	return fmt.Sprintf(`
#include <stdio.h>

static const int8_t test_in[%d] = {%s};
static const int8_t test_weight[%d] = {%s};
static const int32_t test_bias[%d] = {%s};
static int8_t test_pool[VMCU_POOL_CAP];

int main(void) {
    int8_t out[%d];
    vmcu_pool_write(test_pool, %d, test_in, %d);
    vmcu_fc(test_pool, %d, %d, test_weight, (const int8_t *)test_bias);
    vmcu_pool_read(test_pool, %d, out, %d);
    for (int i = 0; i < %d; i++) printf("%%d\n", out[i]);
    return 0;
}
`, len(in), list(ins), len(w), list(ws), len(bias), list(bs),
		outBytes, inOff, len(in), inOff, outOff, outOff, outBytes, outBytes)
}

// simulateFC runs prog with the IR interpreter on a simulated device under
// the same placement as the harness, and returns the output bytes.
func simulateFC(t *testing.T, prog *ir.Program, p plan.Plan, capBytes, outOff int, in, w []int8, bias []int32, outBytes int) []int8 {
	t.Helper()
	dev := mcu.New(mcu.CortexM4(), len(w)+4*len(bias))
	pool, err := seg.NewPool(dev, 0, capBytes, p.SegBytes)
	if err != nil {
		t.Fatal(err)
	}
	ctx := intrin.NewCtx(dev, pool)
	wRef, err := kernels.PackInt8(dev, w)
	if err != nil {
		t.Fatal(err)
	}
	bRef, err := kernels.PackInt32(dev, bias)
	if err != nil {
		t.Fatal(err)
	}
	inPl := kernels.PlaceInput(ctx, "In", in, outOff+p.GapBytes())
	outID := dev.NewTensorID("Out")
	if err := ir.Run(prog, ctx, ir.Bindings{
		Tensors: map[string]ir.TensorBinding{
			"In":  {ID: inPl.ID, Off: inPl.Off},
			"Out": {ID: outID, Off: outOff},
		},
		Blobs: map[string]mcu.FlashRef{"Weight": wRef, "Bias": bRef},
	}); err != nil {
		t.Fatal(err)
	}
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	return kernels.Extract(ctx, kernels.Placement{ID: outID, Off: outOff, Bytes: outBytes})
}

// TestEmittedLibraryCompiles compiles a multi-kernel library.
func TestEmittedLibraryCompiles(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no host C compiler")
	}
	fc1 := ir.BuildFC(4, 16, 16, 16, tensor.NewRequant(0.02, 0))
	fc2 := ir.BuildFC(8, 32, 8, 8, tensor.NewRequant(0.04, -2))
	fc2.Name = "fc_head"
	lib, err := EmitLibrary([]*ir.Program{fc1, fc2}, Options{PoolCapBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.c")
	if err := os.WriteFile(path, []byte(lib), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(cc, "-std=c99", "-Wall", "-Werror", "-c", path,
		"-o", filepath.Join(dir, "lib.o")).CombinedOutput()
	if err != nil {
		t.Fatalf("cc failed: %v\n%s", err, out)
	}
}
