package cuboid

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
)

// cuboidWire is the gob wire format for a Cuboid. Posting lists are
// rebuilt on load rather than serialized.
type cuboidWire struct {
	NumUsers     int
	NumIntervals int
	NumItems     int
	Cells        []Cell
}

// Write serializes the cuboid to w in gob format.
func (c *Cuboid) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	wire := cuboidWire{
		NumUsers:     c.numUsers,
		NumIntervals: c.numIntervals,
		NumItems:     c.numItems,
		Cells:        c.cells,
	}
	if err := enc.Encode(&wire); err != nil {
		return fmt.Errorf("cuboid: encode: %w", err)
	}
	return bw.Flush()
}

// Read deserializes a cuboid previously written with Write.
func Read(r io.Reader) (*Cuboid, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var wire cuboidWire
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("cuboid: decode: %w", err)
	}
	for i, cell := range wire.Cells {
		if int(cell.U) >= wire.NumUsers || int(cell.T) >= wire.NumIntervals ||
			int(cell.V) >= wire.NumItems || cell.U < 0 || cell.T < 0 || cell.V < 0 {
			return nil, fmt.Errorf("cuboid: corrupt cell (%d,%d,%d) outside %dx%dx%d",
				cell.U, cell.T, cell.V, wire.NumUsers, wire.NumIntervals, wire.NumItems)
		}
		// The CSR row pointers require the canonical strict (U, T, V)
		// order Write always produces; reject streams that lost it.
		if i > 0 && !cellLess(wire.Cells[i-1], cell) {
			return nil, fmt.Errorf("cuboid: cells out of (U,T,V) order at index %d", i)
		}
	}
	return fromCells(wire.NumUsers, wire.NumIntervals, wire.NumItems, wire.Cells), nil
}
