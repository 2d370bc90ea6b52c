package cluster

// FirstFit returns the first node (lowest ID) with room for res, preferring
// non-GPU nodes for GPU-less requests so accelerators stay available, as
// BestFit does. No runtime path places with it; the FirstFit tests pin the
// GPU preference on the simplest policy.
func (c *Cluster) FirstFit(res Resources) *Node {
	var fallback *Node
	for _, n := range c.nodes {
		if n.down || !res.Fits(n.Free()) {
			continue
		}
		if res.GPUs == 0 && n.HasGPU() {
			if fallback == nil {
				fallback = n
			}
			continue
		}
		return n
	}
	return fallback
}
