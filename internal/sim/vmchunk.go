package sim

import (
	"repro/internal/cluster"
	"repro/internal/vector"
)

// vmChunkSize is how many VMs one chunk holds: 255 96-byte VMs and their
// live bits come to 24,512 bytes, which with the 8-byte malloc header fill
// Go's 24,576-byte size class, where 256 VMs would spill into the
// 27,264-byte one.
const vmChunkSize = 255

// demandBlock is how many demand floats one allocation holds: 32 KiB, the
// largest size class, 2,048 VMs' demands at K = 2.
const demandBlock = 4096

// vmChunk holds the VMs of vmChunkSize consecutive requests, VM id at
// vms[(id-1)%vmChunkSize] of the run's chunk (id-1)/vmChunkSize. A VM's bit
// in live is set while it is placed or queued.
type vmChunk struct {
	vms  [vmChunkSize]cluster.VM
	live [(vmChunkSize + 63) / 64]uint64
}

// newVM builds the queued VM id in its chunk, the chunk made when the first
// of its VMs arrives or is restored, and marks it live. Arrivals and
// Restore both build through it. The demand is copied into the run's
// current demand block and cluster.VM.Init validates it.
func (s *simulator) newVM(id cluster.VMID, demand vector.V, est, actual, submit float64) *cluster.VM {
	i, j := int(id-1)/vmChunkSize, int(id-1)%vmChunkSize
	c := s.vmChunks[i]
	if c == nil {
		c = new(vmChunk)
		s.vmChunks[i] = c
	}
	k := len(demand)
	if len(s.demands) < k {
		s.demands = make([]float64, max(demandBlock, k))
	}
	d := s.demands[:k:k]
	s.demands = s.demands[k:]
	copy(d, demand)
	vm := &c.vms[j]
	vm.Init(id, d, est, actual, submit)
	c.live[j/64] |= 1 << (j % 64)
	return vm
}

// vm returns the live VM with the given ID, or nil when there is none.
func (s *simulator) vm(id int64) *cluster.VM {
	if id < 1 || id > int64(len(s.cfg.Requests)) {
		return nil
	}
	c, j := s.vmChunks[(id-1)/vmChunkSize], (id-1)%vmChunkSize
	if c == nil || c.live[j/64]&(1<<(j%64)) == 0 {
		return nil
	}
	return &c.vms[j]
}

// dropVM ends a departed or rejected VM's life in the table; the VM itself
// stays readable through any pointer still held. A chunk whose VMs have all
// arrived and gone leaves the table, so a run holds the chunks of its live
// VMs, not of every request it has seen.
func (s *simulator) dropVM(id cluster.VMID) {
	i, j := int(id-1)/vmChunkSize, int(id-1)%vmChunkSize
	c := s.vmChunks[i]
	c.live[j/64] &^= 1 << (j % 64)
	if c.live == [len(c.live)]uint64{} && s.arrived >= min((i+1)*vmChunkSize, len(s.cfg.Requests)) {
		s.vmChunks[i] = nil
	}
}

// liveVMs calls fn on every live VM in ID order.
func (s *simulator) liveVMs(fn func(*cluster.VM)) {
	for _, c := range s.vmChunks {
		for j := 0; c != nil && j < vmChunkSize; j++ {
			if c.live[j/64]&(1<<(j%64)) != 0 {
				fn(&c.vms[j])
			}
		}
	}
}
