package adversary

import (
	"fmt"
	"sort"

	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// rankAliveByDegree returns the alive sensor IDs ordered by descending degree
// in the alive-induced secure topology, ties broken by ascending sensor ID
// for determinism.
func rankAliveByDegree(net *wsn.Network) ([]int32, error) {
	sub, orig, err := net.SecureTopology()
	if err != nil {
		return nil, fmt.Errorf("adversary: targeted ranking: %w", err)
	}
	deg := make(map[int32]int, len(orig))
	for i, id := range orig {
		deg[id] = sub.Degree(int32(i))
	}
	ids := append([]int32(nil), orig...)
	sort.Slice(ids, func(i, j int) bool {
		di, dj := deg[ids[i]], deg[ids[j]]
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return ids, nil
}
