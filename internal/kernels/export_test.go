package kernels

import "github.com/vmcu-project/vmcu/internal/intrin"

// HostConv1Computes returns how many B pixels the host has computed for
// k: the conv1 memo's misses, summed over k's runs.
func (k *Bottleneck) HostConv1Computes() int { return k.conv1Computes }

// Conv1Stage exposes one run's conv1 stage to the external tests.
type Conv1Stage = conv1Stage

// NewConv1Stage starts a conv1 stage reading A from in, whose element 0
// is row 0 of the plane.
func (k *Bottleneck) NewConv1Stage(c *intrin.Ctx, in Placement) *Conv1Stage {
	s := new(conv1Stage)
	s.init(k, c, in, 0)
	return s
}

// Pixel returns B pixel (bh, bw) as the fused kernel obtains it.
func (s *Conv1Stage) Pixel(bh, bw int) []int8 { return s.pixel(bh, bw) }
