package memory

// Totals the tests check placement against; the simulator asks per region
// and per socket (AddBytesOnSocket, Allocated).

// AllocatedBytes returns the bytes of r with a home.
func (r *Region) AllocatedBytes() int64 {
	var n int64
	for _, b := range r.onSocket() {
		n += b
	}
	return n
}

// TotalBytesOnSocket sums the homed bytes of every region per socket.
func (m *Manager) TotalBytesOnSocket() []int64 {
	out := make([]int64, m.sockets)
	for i, b := range m.homed {
		out[i%m.sockets] += b
	}
	return out
}

// UnallocatedBytes returns the total bytes still without a home.
func (m *Manager) UnallocatedBytes() int64 {
	var n int64
	for _, r := range m.regions {
		n += r.bytes - r.AllocatedBytes()
	}
	return n
}
