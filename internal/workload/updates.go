package workload

import (
	"fmt"

	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
)

// The 8 transactional updates (U1-U8 of Table 9). Each runs as one ACID
// transaction against the store; the store is insert-only, so the one
// conflict is an ID created twice, which surfaces as store.ErrExists and is
// the caller's to report.

// ApplyUpdate executes one update-stream operation in its own transaction.
func ApplyUpdate(st *store.Store, u *schema.Update) error {
	tx := st.Begin()
	var err error
	switch u.Type {
	case schema.UpdateAddPerson:
		err = schema.AddPerson(tx, u.Person)
	case schema.UpdateAddLikePost, schema.UpdateAddLikeComment:
		err = tx.AddEdge(u.Like.Person, store.EdgeLikes, u.Like.Message, u.Like.CreationDate)
	case schema.UpdateAddForum:
		err = schema.AddForum(tx, u.Forum)
	case schema.UpdateAddMembership:
		err = tx.AddEdge(u.Membership.Forum, store.EdgeHasMember, u.Membership.Person, u.Membership.JoinDate)
	case schema.UpdateAddPost:
		err = schema.AddPost(tx, u.Post)
	case schema.UpdateAddComment:
		err = schema.AddComment(tx, u.Comment)
	case schema.UpdateAddFriendship:
		err = tx.AddKnows(u.Friendship.A, u.Friendship.B, u.Friendship.CreationDate)
	default:
		err = fmt.Errorf("workload: unknown update type %d", u.Type)
	}
	if err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}
