package relation

// Key encodes a tuple as a string usable as a map key. The encoding is
// 8 little-endian bytes per value, so it is injective for equal-length
// tuples; engines only ever mix keys of a single schema per map.
func Key(vals []int64) string {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		u := uint64(v)
		off := 8 * i
		buf[off+0] = byte(u)
		buf[off+1] = byte(u >> 8)
		buf[off+2] = byte(u >> 16)
		buf[off+3] = byte(u >> 24)
		buf[off+4] = byte(u >> 32)
		buf[off+5] = byte(u >> 40)
		buf[off+6] = byte(u >> 48)
		buf[off+7] = byte(u >> 56)
	}
	return string(buf)
}
