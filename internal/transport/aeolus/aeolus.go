// Package aeolus names Aeolus [17], the paper's "building block for
// proactive transports", integrated with Homa as in the paper's
// evaluation: the first-RTT unscheduled packets ride a droppable class
// that switches shed early under buildup (selective dropping), and shed
// bytes are recovered by grants carrying selective retransmission
// requests instead of by timeouts. The mechanism runs on package homa's
// sender, grant scheduler and receiver (homa.Aeolus).
package aeolus

import "ppt/internal/transport/homa"

// Proto is the Aeolus protocol factory.
type Proto = homa.Aeolus
