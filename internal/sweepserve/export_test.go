package sweepserve

import "context"

// Stats fetches server statistics. Only tests read /v1/stats through the
// typed client.
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	var st ServerStats
	return st, c.get(ctx, "/v1/stats", &st)
}
