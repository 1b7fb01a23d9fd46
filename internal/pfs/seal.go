package pfs

import (
	"fmt"
	"hash/crc32"
	"sort"

	"github.com/hpcio/das/internal/bufpool"
)

// The stored-strip seal is strip ownership's run-time check (DESIGN.md
// §10): a stored strip is immutable, and every read lends it out, so no
// reader may write into what it was lent. While bufpool.Audit is on,
// storePut records a crc32 of each strip it stores, and CheckSeals, called
// where a run reaches quiescence, sums every sealed strip again. A reader
// that wrote into a window — through an index, a copy, unsafe, or by
// handing it to a pool, which the audit scribbles over — changed the
// stored bytes, and the run fails naming the server, the file and the
// strip. With the audit off, sealing and checking each cost one atomic
// load.

// A seal is the sum of one stored slice, kept with the slice itself: a
// strip the audit did not see replaced is still checked against what was
// sealed, never against a later slice the sum does not describe.
type seal struct {
	data []byte
	sum  uint32
}

// seal records the sum of a strip storePut has just stored, while the audit
// is on.
func (s *Server) seal(file string, strip int64, data []byte) {
	if s.seals == nil {
		s.seals = make(map[string]map[int64]seal)
	}
	strips, ok := s.seals[file]
	if !ok {
		strips = make(map[int64]seal)
		s.seals[file] = strips
	}
	strips[strip] = seal{data: data, sum: crc32.ChecksumIEEE(data)}
}

// CheckSeals sums every sealed strip on every server again and reports the
// first, in (server, file, strip) order, whose bytes changed after it was
// stored. A slice replica holders share is checked once per holder.
func (fs *FileSystem) CheckSeals() error {
	if !bufpool.Auditing() {
		return nil
	}
	for _, s := range fs.servers {
		files := make([]string, 0, len(s.seals))
		for file := range s.seals {
			files = append(files, file)
		}
		sort.Strings(files)
		for _, file := range files {
			strips := make([]int64, 0, len(s.seals[file]))
			for strip := range s.seals[file] {
				strips = append(strips, strip)
			}
			sort.Slice(strips, func(i, j int) bool { return strips[i] < strips[j] })
			for _, strip := range strips {
				if sl := s.seals[file][strip]; crc32.ChecksumIEEE(sl.data) != sl.sum {
					return fmt.Errorf("pfs: server %d: %q strip %d changed after it was stored: a reader wrote into lent strip memory", s.srv, file, strip)
				}
			}
		}
	}
	return nil
}
