package mgmt

import (
	"io"
	"net/http"
)

// ReadBody reads r to its end into one buffer of exactly the bytes read;
// more than limit bytes is a *http.MaxBytesError. It reads into chunks
// that grow with the bytes already read, up to 256 KiB each, and copies
// them out once at the end, so a body costs about twice its size in
// allocations however long a sender says it is. io.ReadAll, which grows
// one buffer by appending, allocates about six times a 64 MiB body.
func ReadBody(r io.Reader, limit int64) ([]byte, error) {
	r = io.LimitReader(r, limit+1)
	var chunks [][]byte
	var n int64
	for {
		c := make([]byte, min(max(n, 512), 256<<10))
		m, err := io.ReadFull(r, c)
		chunks = append(chunks, c[:m])
		if n += int64(m); n > limit {
			return nil, &http.MaxBytesError{Limit: limit}
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	out := make([]byte, 0, n)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}
