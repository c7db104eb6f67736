// Checkpointing by deterministic replay.
//
// Because every peer is a deterministic function of (Spec, partition map,
// inbound mail sequence), a checkpoint does not need event heaps or
// device state: the coordinator simply retains, per peer, the mail batch
// that peer received going into every window — rebuilt from the copies of
// outbound mail the peers put in their DONE frames, in the order the mesh
// delivers it (source peers ascending, each in send order). A peer handed
// the log rebuilds the model from the Spec, replays windows [0, W) by
// re-injecting the logged batches and re-executing, discarding its
// outbound mail, and arrives at the exact barrier state the run held at W.
//
// Recovery hands it to everybody. The peers run ahead of the coordinator
// and of each other's DONE streams, so when a peer or a mesh link is lost
// the survivors stand at different windows, all at or past W, the last
// window the coordinator holds every peer's DONE for. Rather than roll
// them back, every peer — survivors and replacement alike — gets a WELCOME
// with Resume = W and replays to W; the run continues from there and
// everything after W is executed again. The digest is unchanged because
// the log is exactly what the peers delivered to each other. The cost is
// one replay of [0, W), which the replacement pays in any design.
//
// The log lives in coordinator memory for the duration of the run, and
// only when something can read it: CoordConfig.Rejoin or CheckpointDir.
// Without either the peers are told not to send the copies at all. With
// CheckpointDir set it is additionally streamed to one append-only file
// per peer:
//
//	file   := "SDCKPT1\n" | uvarint len | header-JSON | record*
//	record := uvarint window | uvarint len | mailbatch
//
// so a run's full mail history survives the coordinator for post-mortem
// replay (time-travel debugging of invariant failures).
package distsim

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

const ckptMagic = "SDCKPT1\n"

// ckptHeader identifies what a checkpoint file replays.
type ckptHeader struct {
	Spec   Spec  `json:"spec"`
	Peer   int   `json:"peer"`
	NPeers int   `json:"npeers"`
	Owners []int `json:"owners"`
}

// mailLog is the in-memory checkpoint: per peer, the inbound mail batch
// of every window, in window order.
type mailLog struct {
	keep    bool       // false: nothing can read a log, nothing is stored
	windows [][][]byte // [peer][window] -> mail batch
	files   []*os.File // nil without CheckpointDir
}

func newMailLog(npeers int, keep bool, dir string, spec Spec, owners []int) (*mailLog, error) {
	l := &mailLog{keep: keep, windows: make([][][]byte, npeers)}
	if dir == "" {
		return l, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l.files = make([]*os.File, npeers)
	for p := range l.files {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("peer%d.ckpt", p)))
		if err != nil {
			l.close()
			return nil, err
		}
		hdr, err := json.Marshal(ckptHeader{Spec: spec, Peer: p, NPeers: npeers, Owners: owners})
		if err != nil {
			l.close()
			return nil, err
		}
		buf := append([]byte(ckptMagic), binary.AppendUvarint(nil, uint64(len(hdr)))...)
		buf = append(buf, hdr...)
		if _, err := f.Write(buf); err != nil {
			l.close()
			return nil, err
		}
		l.files[p] = f
	}
	return l, nil
}

// log records a copy of the batch delivered to peer p going into window
// w. Windows are logged densely in order — the accounting loop guarantees
// it.
func (l *mailLog) log(p, w int, batch []byte) error {
	if w != len(l.windows[p]) {
		return fmt.Errorf("distsim: checkpoint log out of order: peer %d window %d, have %d", p, w, len(l.windows[p]))
	}
	batch = append([]byte(nil), batch...)
	l.windows[p] = append(l.windows[p], batch)
	if l.files != nil {
		rec := binary.AppendUvarint(nil, uint64(w))
		rec = binary.AppendUvarint(rec, uint64(len(batch)))
		rec = append(rec, batch...)
		if _, err := l.files[p].Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// mailFor returns what peer p needs to resume at window w: its logged
// batches for windows [0, w] — [0, w) to replay, w to deliver before going
// live. After the run's last window there is no batch w.
func (l *mailLog) mailFor(p, w int) [][]byte {
	return l.windows[p][:min(w+1, len(l.windows[p]))]
}

func (l *mailLog) close() {
	for _, f := range l.files {
		if f != nil {
			f.Close()
		}
	}
}

// LoadCheckpoint reads one peer's checkpoint file back: the header and
// the per-window mail batches, exactly the resume payload a WELCOME
// carries. It is the offline half of the format — what a post-mortem
// replay tool feeds to a fresh Model.
func LoadCheckpoint(path string) (ckptHeader, [][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ckptHeader{}, nil, err
	}
	return parseCheckpoint(data, path)
}

// parseCheckpoint decodes a checkpoint file's bytes; path only names it in
// errors. The batches alias data.
func parseCheckpoint(data []byte, path string) (ckptHeader, [][]byte, error) {
	var hdr ckptHeader
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return hdr, nil, fmt.Errorf("distsim: %s: not a checkpoint file", path)
	}
	data = data[len(ckptMagic):]
	hlen, k := binary.Uvarint(data)
	if k <= 0 || uint64(len(data[k:])) < hlen {
		return hdr, nil, fmt.Errorf("distsim: %s: truncated checkpoint header", path)
	}
	if err := json.Unmarshal(data[k:k+int(hlen)], &hdr); err != nil {
		return hdr, nil, fmt.Errorf("distsim: %s: %w", path, err)
	}
	data = data[k+int(hlen):]
	var batches [][]byte
	for len(data) > 0 {
		w, k1 := binary.Uvarint(data)
		if k1 <= 0 {
			return hdr, nil, fmt.Errorf("distsim: %s: truncated record", path)
		}
		blen, k2 := binary.Uvarint(data[k1:])
		if k2 <= 0 || uint64(len(data[k1+k2:])) < blen {
			return hdr, nil, io.ErrUnexpectedEOF
		}
		if w != uint64(len(batches)) {
			return hdr, nil, fmt.Errorf("distsim: %s: window %d out of order", path, w)
		}
		batches = append(batches, data[k1+k2:k1+k2+int(blen)])
		data = data[k1+k2+int(blen):]
	}
	return hdr, batches, nil
}
